"""Report plumbing, samplers and quadrature of the seeded verification suites."""

import math
import warnings
from collections import Counter

import numpy as np
import pytest

from qdeform import (algebra, canonical, combinatorics, dynamics, q_exp, q_exp_bracket,
                     qgaussian, verify)
from qdeform.verify import SUITE_NAMES, run_all, run_suite


def test_suite_names_include_all():
    assert set(SUITE_NAMES) == {"identities", "dynamics", "stirling", "mlp",
                                "canonical", "all"}


def test_unknown_suite_raises():
    with pytest.raises(KeyError):
        run_suite("bogus", 0)


@pytest.mark.parametrize("name", ["dynamics", "stirling", "mlp", "canonical"])
def test_individual_suites_pass(name):
    report = run_suite(name, seed=1)
    assert report.suite == name
    assert report.seed == 1
    assert report.passed
    assert all(c.max_rel_err < c.tolerance for c in report.cases)


# at 28, 51 and 71 the fold sampler meets folds whose last bracket lies
# within 2e-4 of 0, which it must reject
@pytest.mark.parametrize("seed", [1, 28, 51, 71])
def test_identities_suite_passes(seed):
    report = run_suite("identities", seed=seed)
    assert report.passed


def test_reports_are_deterministic():
    a = run_suite("canonical", seed=5)
    b = run_suite("canonical", seed=5)
    assert a == b


def test_json_dict_schema():
    report = run_suite("canonical", seed=2)
    payload = report.to_json_dict()
    assert set(payload) == {"suite", "seed", "tolerances", "cases", "pass"}
    assert payload["suite"] == "canonical"
    assert payload["seed"] == 2
    assert isinstance(payload["pass"], bool)
    for case in payload["cases"]:
        assert set(case) == {"name", "max_rel_err", "pass"}
        assert isinstance(case["max_rel_err"], float)
        assert case["name"] in payload["tolerances"]


def test_run_all_prefixes_cases():
    report = run_all(seed=3)
    assert report.suite == "all"
    prefixes = {c.name.split("/")[0] for c in report.cases}
    assert prefixes == {"identities", "dynamics", "stirling", "mlp", "canonical"}
    assert report.passed


# every case and its tolerance: removing, renaming or loosening a case must
# show up as a change here
_CASES = {
    "identities/round_trip": 1e-12,
    "identities/q_exp_law": 1e-12,
    "identities/q_product_associative": 1e-12,
    "identities/shift_expansion": 1e-12,
    "identities/q_log_of_ratio": 1e-12,
    "identities/q_log_monotone_violations": 0.5,
    "identities/classical_limit_continuity": 1e-7,
    "identities/scale_drift_product": 1e-10,
    "identities/fold_vs_qlog_sum": 1e-12,
    "dynamics/rk4_vs_analytic_decay": 1e-6,
    "dynamics/rk4_vs_analytic_growth": 1e-6,
    "dynamics/rescaled_trajectory_invariance": 1e-4,
    "dynamics/sequential_shift_composition": 1e-12,
    "dynamics/fig2_qlog_affine": 1e-9,
    "stirling/stirling_error_monotone_violations": 0.5,
    "stirling/log_factorial_tail": 1e-12,
    "stirling/entropy_classical_limit": 1e-9,
    "stirling/uniform_maximality_violations": 0.5,
    "stirling/tsallis_correspondence_trend_violations": 0.5,
    "mlp/pdf_total_mass": 1e-8,
    "mlp/mlp_gradient_at_mean": 1e-6,
    "mlp/mlp_curvature_negative_violations": 0.5,
    "mlp/likelihood_parabola": 1e-12,
    "mlp/lnq_density_quadratic": 1e-6,
    "mlp/defining_ode_residual": 1.0,
    "mlp/frequency_rescaling_invariance": 1e-12,
    "mlp/fig3_qlog_parabola": 1e-9,
    "canonical/split_probability_invariance": 1e-12,
    "canonical/split_canonical_form": 1e-12,
    "canonical/canonical_reconstruction": 1e-10,
    "canonical/classical_shift_independence": 1e-12,
    "canonical/worked_two_point_model": 1e-14,
}


def test_case_list_and_tolerances_are_pinned():
    assert run_all(0).tolerances == _CASES


# indices across the sampled range, plus the classical point and its
# nearest neighbours, where the cut 1/(1-q) must not divide by zero
_INDICES = np.concatenate([np.linspace(0.2, 2.8, 2601),
                           np.repeat([1.0, 1.0 - 1e-12, 1.0 + 1e-12], 200)])


@pytest.mark.parametrize("shifted", [False, True])
def test_exp_arg_draw_stays_inside_margin(shifted):
    rng = np.random.default_rng(4)
    # the shift range of the shift_expansion case
    shift = verify._draw_exp_args(rng, _INDICES) if shifted else 0.0
    x = verify._draw_exp_args(rng, _INDICES, shift=shift)
    assert np.all((x >= -3.0) & (x <= 3.0))
    assert np.all(1.0 + (1.0 - _INDICES) * (x + shift) > verify._BRACKET_MARGIN)
    if shifted:
        assert np.all((shift >= -3.0) & (shift <= 3.0))
        assert np.all(1.0 + (1.0 - _INDICES) * shift > verify._BRACKET_MARGIN)


@pytest.mark.parametrize("q", [0.3, 1.0, 2.5])
def test_exp_arg_draw_matches_rejection_law(q):
    # uniform on [-3, 3] kept where the bracket clears the margin
    rng = np.random.default_rng(5)
    pool = rng.uniform(-3.0, 3.0, size=40_000)
    kept = pool[1.0 + (1.0 - q) * pool > verify._BRACKET_MARGIN]
    drawn = verify._draw_exp_args(rng, np.full(kept.size, q))
    quartiles = [0.0, 0.25, 0.5, 0.75, 1.0]
    np.testing.assert_allclose(np.quantile(drawn, quartiles),
                               np.quantile(kept, quartiles), atol=0.05)


def test_sample_rows_redraws_only_rejected_rows():
    batches = iter([[1.0, -1.0, 2.0, -2.0], [-3.0, 3.0], [4.0]])
    seen = []

    def draw(k):
        seen.append(k)
        return (np.array(next(batches)),)

    (values,) = verify._sample_rows(4, draw, lambda v: v > 0.0)
    assert seen == [4, 2, 1]
    assert values.tolist() == [1.0, 4.0, 2.0, 3.0]


def test_sample_rows_raises_when_every_row_is_rejected():
    rounds = []

    def draw(k):
        rounds.append(k)
        return (np.zeros(k),)

    with pytest.raises(RuntimeError):
        verify._sample_rows(3, draw, lambda v: np.zeros(v.size, bool))
    # the first draw and _MAX_DRAWS redraws of every row
    assert rounds == [3] * (verify._MAX_DRAWS + 1)


# calls each suite makes at seed 3 to some of its checkers, as when every
# case drew one row at a time: cheaper draws must not mean fewer checks
_CHECKER_CALLS = {
    # q_product: one per q_exp_law row, four per associativity row, and one
    # per step of the left fold that checks each of the 2000 folds (3948 steps)
    "identities": {(algebra, "q_product"): 10_000 + 4 * 10_000 + 3948,
                   (algebra, "q_product_fold"): 2000,
                   (dynamics, "shift_expansion"): 10_000},
    "dynamics": {(dynamics, "compose_shifts"): 1000},
    "stirling": {(combinatorics, "tsallis_entropy"): 9183},
    # mlp: 300 sets through the central differences of the per-sample sum,
    # and 7 indices x 3 widths checked at the mean and one step either side
    "mlp": {(verify, "_central_differences"): 300,
            (qgaussian, "mlp_stationarity"): 21, (qgaussian, "q_log_likelihood"): 63},
    "canonical": {(canonical, "build_distribution"): 204,
                  (canonical, "split_representation"): 200},
}


def _counting(counts, key, fn):
    def counted(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)
    return counted


@pytest.mark.parametrize("suite", sorted(_CHECKER_CALLS))
def test_suites_keep_their_sample_counts(suite, monkeypatch):
    counts = Counter()
    for module, name in _CHECKER_CALLS[suite]:
        monkeypatch.setattr(module, name,
                            _counting(counts, (module, name), getattr(module, name)))
    run_suite(suite, seed=3)
    assert counts == _CHECKER_CALLS[suite]


@pytest.mark.parametrize("module, name, suite, fails", [
    (verify, "q_log_of_ratio", "identities", {"q_log_of_ratio"}),
    (dynamics, "analytic_solution", "dynamics",
     {"rk4_vs_analytic_decay", "rk4_vs_analytic_growth"}),
    # an ordering count: a NaN step breaks the order it requires
    (combinatorics, "q_stirling", "stirling", {"stirling_error_monotone_violations"}),
])
def test_a_nan_fails_its_case(module, name, suite, fails, monkeypatch):
    monkeypatch.setattr(module, name, lambda *args: float("nan"))
    failed = {c.name for c in run_suite(suite, seed=0).cases if not c.passed}
    assert failed == fails


def _run_one(case):
    """The CaseResult of a suite that yields the one case."""
    (result,) = verify._run_cases(lambda rng: iter([case]), seed=0)
    return result


@pytest.mark.parametrize("case, worst", [
    pytest.param(verify._measured("one_value", 1.0, 0.25), 0.25, id="one_value"),
    pytest.param(verify._measured("count", 0.5, 3), 3.0, id="count"),
    pytest.param(verify._measured("values", 1e-2, 1e-3, 4e-3, 2e-3), 4e-3, id="values"),
    pytest.param(verify._Case("per_row", 1e-2, lambda err: err, [(1e-3,), (2e-3,), (1e-4,)]),
                 2e-3, id="per_row"),
    pytest.param(verify._Case("pairs", 1e-2, lambda a, b: (a, b), [(1e-3, 5e-3), (4e-3, 2e-3)]),
                 5e-3, id="pairs"),
    pytest.param(verify._Case("no_rows", 1e-2, lambda err: err, []), 0.0, id="no_rows"),
])
def test_run_cases_reduces_a_case_to_its_worst_error(case, worst):
    result = _run_one(case)
    assert result == verify.CaseResult(case.name, worst, case.tolerance, worst < case.tolerance)
    assert type(result.max_rel_err) is float


@pytest.mark.parametrize("at", [0, 2, 4])
def test_run_cases_keeps_a_nan_and_checks_every_later_row(at):
    errors = [1e-3, 2e-3, 5e-4, 4e-3, 1e-4]
    errors[at] = float("nan")
    for pairs in (False, True):
        checked = []

        def check(i):
            checked.append(i)
            # in a pair, a larger error follows the NaN
            return (errors[i], 1e-2) if pairs else errors[i]

        result = _run_one(verify._Case("nan", 1.0, check, [(i,) for i in range(5)]))
        assert np.isnan(result.max_rel_err)
        assert not result.passed
        assert checked == list(range(5))


def test_run_suite_and_run_all_reach_suites_through_the_registry(monkeypatch):
    # a wrapper put in the registry (as a tracer does) sees every run
    calls = []
    exact = verify._SUITES["canonical"]

    def counted(seed):
        calls.append(seed)
        return exact(seed)

    monkeypatch.setitem(verify._SUITES, "canonical", counted)
    run_suite("canonical", seed=4)
    run_all(seed=5)
    assert calls == [4, 5]


def test_split_cases_fail_on_a_wrong_probability(monkeypatch):
    exact = canonical.split_representation

    def perturbed(q, xs, shift1, shift2):
        p_a, p_b = exact(q, xs, shift1, shift2)
        p_a = np.asarray(p_a)
        p_a[0] *= 1.0 + 1e-9
        return tuple(p_a / p_a.sum()), p_b

    monkeypatch.setattr(canonical, "split_representation", perturbed)
    failed = {c.name for c in run_suite("canonical", seed=4).cases if not c.passed}
    assert failed == {"split_probability_invariance", "split_canonical_form"}


def test_tail_case_fails_on_a_wrong_tail(monkeypatch):
    exact = combinatorics.q_log_factorial
    # a tail wrong only just past the exact head, or only far past it
    for lo, hi in ((combinatorics._HEAD, 1024), (1024, math.inf)):
        def perturbed(q, n, lo=lo, hi=hi):
            value = exact(q, n)
            return value * (1.0 + 1e-11) if lo < n <= hi else value

        monkeypatch.setattr(combinatorics, "q_log_factorial", perturbed)
        failed = {c.name for c in run_suite("stirling", seed=0).cases if not c.passed}
        assert failed == {"log_factorial_tail"}, (lo, hi)


def test_entropy_limit_case_fails_on_the_flipped_deformation(monkeypatch):
    # S_{2-q} agrees with S_q at q = 1 and differs from it at first order;
    # the correspondence's entropy side goes through the same function
    exact = combinatorics.tsallis_entropy
    monkeypatch.setattr(combinatorics, "tsallis_entropy", lambda q, p: exact(2.0 - q, p))
    failed = {c.name: c.max_rel_err for c in run_suite("stirling", seed=0).cases
              if not c.passed}
    assert failed.keys() == {"entropy_classical_limit",
                             "tsallis_correspondence_trend_violations"}
    assert failed["entropy_classical_limit"] > 1e-6


def test_exp_limit_case_fails_on_the_flipped_deformation(monkeypatch):
    # exp_{2-q} at the case's two indices only, which no other case draws
    exact = verify.q_exp
    monkeypatch.setattr(verify, "q_exp", lambda q, x: exact(
        2.0 - q if q in (1.0 - 1e-6, 1.0 + 1e-6) else q, x))
    failed = {c.name: c.max_rel_err for c in run_suite("identities", seed=0).cases
              if not c.passed}
    assert failed.keys() == {"classical_limit_continuity"}
    assert failed["classical_limit_continuity"] == pytest.approx(2.5e-5, rel=1e-3)


def test_fold_case_fails_on_a_wrong_fold(monkeypatch):
    exact = algebra.q_product_fold
    monkeypatch.setattr(algebra, "q_product_fold",
                        lambda q, factors: exact(q, factors) * (1.0 + 1e-9))
    failed = {c.name for c in run_suite("identities", seed=0).cases if not c.passed}
    assert failed == {"fold_vs_qlog_sum"}


def test_likelihood_case_fails_on_a_wrong_likelihood(monkeypatch):
    exact = qgaussian.q_log_likelihood

    def perturbed(model, theta, samples):
        return exact(model, theta, samples) * (1.0 + 1e-9)

    monkeypatch.setattr(qgaussian, "q_log_likelihood", perturbed)
    failed = {c.name for c in run_suite("mlp", seed=0).cases if not c.passed}
    assert failed == {"likelihood_parabola"}


def test_likelihood_case_fails_on_a_wrong_curvature(monkeypatch):
    exact = qgaussian.mlp_stationarity

    def perturbed(model, samples):
        gradient, curvature = exact(model, samples)
        return gradient, curvature * (1.0 + 1e-9)

    monkeypatch.setattr(qgaussian, "mlp_stationarity", perturbed)
    failed = {c.name for c in run_suite("mlp", seed=0).cases if not c.passed}
    assert failed == {"likelihood_parabola"}


def test_split_draws_clear_the_margin(monkeypatch):
    splits = []
    exact = canonical.split_representation

    def recorded(q, xs, shift1, shift2):
        splits.append((q, np.asarray(xs), shift1, shift2))
        return exact(q, xs, shift1, shift2)

    monkeypatch.setattr(canonical, "split_representation", recorded)
    assert run_suite("canonical", seed=8).passed
    assert len(splits) == 200
    margin = verify._BRACKET_MARGIN
    for q, xs, c1, c2 in splits:
        assert c1 + c2 == pytest.approx(1.0, abs=1e-15)
        assert min(q_exp_bracket(q, c1), q_exp_bracket(q, c2)) > margin
        for outer, inner in ((c1, c2), (c2, c1)):
            rescaled = (inner - xs) / q_exp(q, outer) ** (1.0 - q)
            assert np.all(q_exp_bracket(q, rescaled) > margin)


def test_index_and_positive_draws():
    rng = np.random.default_rng(6)
    q = verify._draw_indices(rng, 20_000)
    classical = q == 1.0
    assert 0.09 < classical.mean() < 0.11
    assert np.all((q[~classical] >= 0.2) & (q[~classical] <= 2.8))
    # log-uniform: the median sits at the geometric mean of the bounds
    v = verify._draw_positives(rng, 20_000, 0.05, 20.0)
    assert np.all((v >= 0.05) & (v <= 20.0))
    assert abs(np.median(v) - 1.0) < 0.05


@pytest.mark.parametrize("beta", [1e-2, 1.0, 1e2])
def test_integrate_density_matches_closed_form(beta):
    """The double-exponential mass of exp_q(-beta e**2) / normalization is 1
    to 1e-13 for q in [-2, 2.8] and at q = 1 +- 1e-12, with no warning.

    The grid stops at q = 2.8: the mass past r = e*sqrt(beta) = R falls like
    R**(-(3-q)/(q-1)), and R cannot pass about 1e154, where beta * e**2
    overflows a double.  Past 1e150 lie 2e-17 of the mass at q = 2.8 but
    1.2e-8 at q = 2.9, out of reach of any rule on doubles.
    """
    indices = [*np.linspace(-2.0, 2.8, 57).tolist(), 1.0 - 1e-12, 1.0 + 1e-12]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for q in indices:
            model = qgaussian.QGaussianModel.from_beta(q, beta)
            assert abs(verify._integrate_density(model) - 1.0) <= 1e-13, q
