"""Acceptance criteria, one test per criterion.

Each test prints a single ``ACCEPTANCE nn [...]: PASS/FAIL`` line (run with
``pytest -s`` to see them stream) and enforces both the stated tolerance
and the stated runtime budget.  Criteria 1-6, 8 and 9 are verify cases,
run at each criterion's own seed and held to its stated tolerance; 3 also
reads the figure tables' shared rescaled columns, 7 keeps an independent
quadrature oracle and 10 runs the CLI.
"""

import json
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
from scipy.integrate import quad

from qdeform import QGaussianModel, fig2_data, fig3_data, normalization, q_gaussian_pdf
from qdeform.verify import run_suite

SQRT_PI = 1.772453850905516027298


@contextmanager
def criterion(number, label, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        elapsed = time.perf_counter() - start
        print(f"ACCEPTANCE {number:02d} [{label}]: FAIL ({elapsed:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    within = elapsed < budget_seconds
    status = "PASS" if within else "FAIL (runtime budget)"
    print(f"ACCEPTANCE {number:02d} [{label}]: {status} "
          f"({elapsed:.2f}s, budget {budget_seconds:g}s)")
    assert within, f"runtime {elapsed:.2f}s exceeded {budget_seconds}s"


def assert_cases(suite, seed, tolerances):
    """Run one verify suite and hold each named case to the criterion's
    own tolerance (0.5 for a violation count, i.e. none)."""
    cases = {c.name: c for c in run_suite(suite, seed=seed).cases}
    for name, tol in tolerances.items():
        assert cases[name].max_rel_err < tol, (name, cases[name].max_rel_err)


def test_01_identity_suite():
    with criterion(1, "identity suite, 10k tuples at 1e-12", 10.0):
        assert_cases("identities", 424242, {
            "round_trip": 1e-12, "q_exp_law": 1e-12, "q_product_associative": 1e-12,
            "shift_expansion": 1e-12, "q_log_of_ratio": 1e-12})


def test_02_dynamics_rk4_and_rescaling_invariance():
    with criterion(2, "RK4 vs closed form + rescaled-slope invariance", 5.0):
        assert_cases("dynamics", 202020, {
            "rk4_vs_analytic_decay": 1e-6, "rescaled_trajectory_invariance": 1e-4})


def test_03_figure_reproduction():
    with criterion(3, "figure data: curve collapse + deformed-log shape", 2.0):
        assert_cases("dynamics", 303030, {"fig2_qlog_affine": 1e-9})
        assert_cases("mlp", 303030, {"fig3_qlog_parabola": 1e-9})
        for table in (fig2_data(), fig3_data()):
            curves = [[row[4:6] for row in curve]
                      for curve in table.curves().values()]
            assert all(curve == curves[0] for curve in curves[1:])


def test_04_stirling_error_monotone():
    with criterion(4, "asymptotic-formula error non-increasing in n", 5.0):
        assert_cases("stirling", 404040, {"stirling_error_monotone_violations": 0.5})


def test_05_tsallis_correspondence_decay():
    with criterion(5, "multinomial/entropy gap shrinks with n", 10.0):
        assert_cases("stirling", 505050,
                     {"tsallis_correspondence_trend_violations": 0.5})


def test_06_likelihood_stationary_at_mean():
    with criterion(6, "gradient vanishes at the sample mean", 10.0):
        assert_cases("mlp", 606060, {
            "mlp_gradient_at_mean": 1e-6, "mlp_curvature_negative_violations": 0.5,
            "likelihood_parabola": 1e-12, "lnq_density_quadratic": 1e-6})


def test_07_normalization():
    with criterion(7, "bell-density normalization", 10.0):
        assert abs(normalization(1.0, 1.0) - SQRT_PI) < 1e-10
        assert abs(normalization(0.0, 1.0) - 4.0 / 3.0) < 1e-10
        for q in (0.0, 0.5, 1.0, 1.5, 2.0, 2.5):
            for beta in (0.5, 1.0, 2.0):
                model = QGaussianModel.from_beta(q, beta)
                pdf = lambda e: q_gaussian_pdf(model, e)
                if q < 1.0:
                    edge = model.support_halfwidth()
                    mass, _ = quad(pdf, -edge, edge, points=[0.0],
                                   epsabs=1e-12, epsrel=1e-12, limit=200)
                else:
                    mass, _ = quad(pdf, -np.inf, np.inf,
                                   epsabs=1e-12, epsrel=1e-12, limit=400)
                assert abs(mass - 1.0) < 1e-8, (q, beta, mass)


def test_08_canonical_uniqueness():
    with criterion(8, "split invariance and one affine form", 2.0):
        assert_cases("canonical", 808080, {
            "split_probability_invariance": 1e-12, "split_canonical_form": 1e-12,
            "canonical_reconstruction": 1e-10, "classical_shift_independence": 1e-12})


def test_09_worked_hand_check():
    with criterion(9, "two-point worked example", 1.0):
        assert_cases("canonical", 909090, {"worked_two_point_model": 1e-14})


def test_10_cli_determinism(tmp_path, src_env):
    with criterion(10, "byte-identical verification reports", 60.0):
        outputs = []
        for name in ("first.json", "second.json"):
            path = tmp_path / name
            result = subprocess.run(
                [sys.executable, "-m", "qdeform", "verify", "all",
                 "--seed", "42", "--format", "json", "--out", str(path)],
                capture_output=True, env=src_env)
            assert result.returncode == 0, result.stderr.decode()
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]
        payload = json.loads(outputs[0])
        assert payload["pass"] is True
        assert payload["seed"] == 42
