"""Acceptance criteria, one test per criterion.

Each test prints a single ``ACCEPTANCE nn [...]: PASS/FAIL`` line (run with
``pytest -s`` to see them stream) and enforces both the stated tolerance
and the stated runtime budget.
"""

import json
import math
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.integrate import quad

from qdeform import (
    QGaussianModel,
    analytic_solution,
    build_distribution,
    canonical_form,
    fig2_data,
    fig3_data,
    integrate_ode,
    mlp_stationarity,
    normalization,
    q_gaussian_pdf,
    q_log,
    q_log_factorial,
    q_stirling,
    split_representation,
    tsallis_correspondence,
    tsallis_correspondence_q2,
)
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


def test_01_identity_suite():
    with criterion(1, "identity suite, 10k tuples at 1e-12", 10.0):
        report = run_suite("identities", seed=424242)
        by_name = {c.name: c for c in report.cases}
        for name in ("round_trip", "q_exp_law", "q_product_commutative",
                     "q_product_associative", "shift_expansion",
                     "q_log_of_ratio"):
            case = by_name[name]
            assert case.max_rel_err < 1e-12, (name, case.max_rel_err)


def test_02_dynamics_rk4_and_rescaling_invariance():
    with criterion(2, "RK4 vs closed form + rescaled-slope invariance", 5.0):
        q = 1.3
        traj = integrate_ode(q, 0.0, 1.0, -1, 5.0, 1e-3)
        worst = 0.0
        for x, y in zip(traj.xs, traj.ys):
            ref = analytic_solution(q, 1.0, -1, float(x))
            worst = max(worst, abs(y - ref) / ref)
        assert worst < 1e-6, worst

        for scale in (1.0, 10.0, 20.0):
            span = 5.0 * scale ** (1.0 - q)
            traj = integrate_ode(q, 0.0, scale, -1, span, 1e-3)
            xt = traj.xs / scale ** (1.0 - q)
            yt = traj.ys / scale
            slope_fd = (yt[2:] - yt[:-2]) / (xt[2:] - xt[:-2])
            slope_ode = -yt[1:-1] ** q
            err = float(np.max(np.abs(slope_fd - slope_ode)
                               / np.abs(slope_ode)))
            assert err < 1e-4, (scale, err)


def _max_curve_deviation(table):
    curves = list(table.curves().values())
    y_col = table.columns.index("y_rescaled")
    ref = np.array([row[y_col] for row in curves[0]])
    worst = 0.0
    for other in curves[1:]:
        y = np.array([row[y_col] for row in other])
        worst = max(worst, float(np.max(np.abs(y - ref) / np.abs(ref))))
    return worst


def test_03_figure_reproduction():
    with criterion(3, "figure data: curve collapse + deformed-log shape", 2.0):
        fig2 = fig2_data()
        assert _max_curve_deviation(fig2) < 1e-12
        for row in fig2.rows:
            line = -row[2] + q_log(1.3, row[1])
            assert abs(row[6] - line) < 1e-9

        fig3 = fig3_data()
        assert _max_curve_deviation(fig3) < 1e-12
        for row in fig3.rows:
            parabola = -row[2] ** 2 + q_log(1.7, row[1])
            assert abs(row[6] - parabola) < 1e-9


def test_04_stirling_error_monotone():
    with criterion(4, "asymptotic-formula error non-increasing in n", 5.0):
        for q in (0.5, 1.0, 1.5, 2.0, 2.5):
            errs = []
            for n in (10, 100, 1000, 10000):
                exact = q_log_factorial(q, n)
                errs.append(abs(q_stirling(q, n) - exact) / abs(exact))
            assert all(b <= a for a, b in zip(errs, errs[1:])), (q, errs)


def test_05_tsallis_correspondence_decay():
    with criterion(5, "multinomial/entropy gap shrinks with n", 10.0):
        for q in (0.5, 1.0, 1.5):
            for ratios in ((1, 1), (1, 2, 3)):
                errs = []
                for n in (60, 600, 6000, 60000):
                    counts = [n * r // sum(ratios) for r in ratios]
                    errs.append(tsallis_correspondence(q, counts)[2])
                assert all(b < a for a, b in zip(errs, errs[1:])), (q, ratios, errs)
        for ratios in ((1, 1), (1, 2, 3)):
            errs = []
            for n in (60, 600, 6000, 60000):
                counts = [n * r // sum(ratios) for r in ratios]
                errs.append(tsallis_correspondence_q2(counts)[2])
            assert all(b < a for a, b in zip(errs, errs[1:])), (ratios, errs)


def test_06_likelihood_stationary_at_mean():
    with criterion(6, "gradient vanishes at the sample mean", 10.0):
        rng = np.random.default_rng(606060)
        for q in (0.5, 1.3, 1.7):
            model = QGaussianModel.from_beta(q, 1.0)
            for _ in range(100):
                if q < 1.0:
                    samples = rng.uniform(-0.5, 0.5, size=10)
                else:
                    samples = rng.normal(0.0, 1.0, size=10)
                grad, curv = mlp_stationarity(model, samples)
                scale = max(1.0, float(np.max(np.abs(samples
                                                     - np.mean(samples)))))
                assert curv < 0.0
                assert abs(grad) <= 1e-6 * abs(curv) * scale

        grid = np.linspace(-0.3, 0.3, 61)
        h = grid[1] - grid[0]
        for q in (0.5, 1.3, 1.7):
            model = QGaussianModel.from_beta(q, 1.0)
            lnq = np.array([q_log(q, q_gaussian_pdf(model, e)) for e in grid])
            second = (lnq[2:] - 2 * lnq[1:-1] + lnq[:-2]) / (h * h)
            mid = float(np.median(second))
            assert float(np.max(np.abs(second - mid) / abs(mid))) < 1e-6


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
    with criterion(8, "split invariance and bit-stable affine form", 2.0):
        rng = np.random.default_rng(808080)
        xs = rng.uniform(-0.9, 1.1, size=10)
        ref = build_distribution(1.5, xs, 1.0)
        ref_p = np.asarray(ref.probabilities)
        form = canonical_form(ref)
        forms = set()
        for _ in range(100):
            c1 = float(rng.uniform(-0.99, 1.99))
            c2 = 1.0 - c1
            for p in split_representation(1.5, xs, c1, c2):
                assert float(np.max(np.abs(np.asarray(p) - ref_p))) < 1e-12
            split_form = canonical_form(build_distribution(1.5, xs, 1.0))
            forms.add((split_form.slope, split_form.intercept))
        assert forms == {(form.slope, form.intercept)}  # bit-stable
        for x, p in zip(ref.xs, ref.probabilities):
            assert abs(form.reconstruct(x) - p) / p < 1e-10

        # classical index: output independent of the shift constant
        xs1 = rng.uniform(-1.0, 1.0, size=10)
        a = build_distribution(1.0, xs1, 0.2)
        b = build_distribution(1.0, xs1, 1.4)
        assert float(np.max(np.abs(np.asarray(a.probabilities)
                                   - np.asarray(b.probabilities)))) < 1e-12
        fa, fb = canonical_form(a), canonical_form(b)
        assert fa.slope == fb.slope
        assert abs(fa.intercept - fb.intercept) < 1e-12


def test_09_worked_hand_check():
    with criterion(9, "two-point worked example", 1.0):
        dist = build_distribution(2.0, [0.0, 1.0], 0.0)
        form = canonical_form(dist)
        assert abs(dist.probabilities[0] - 2.0 / 3.0) < 1e-14
        assert abs(dist.probabilities[1] - 1.0 / 3.0) < 1e-14
        assert abs(form.slope - (-1.5)) < 1e-14
        assert abs(form.intercept - (-0.5)) < 1e-14


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
