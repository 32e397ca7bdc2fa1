"""Seeded verification suites over the package's mathematical invariants.

Each suite draws its inputs from ``numpy.random.default_rng(seed)`` (PCG64;
the seed is recorded in the report) so a report is reproducible
byte-for-byte.  A case's ``max_rel_err`` is the worst error metric observed
over all sampled inputs; trend/ordering checks report a violation count
instead, with tolerance 0.5 (i.e. zero violations pass).  Rejection
sampling keeps every drawn tuple inside the domain brackets with a safety
margin, so reported errors measure the identities, not boundary
conditioning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import algebra, canonical, combinatorics, dynamics, qgaussian
from .core import q_exp, q_exp_bracket, q_log, q_log_of_ratio, round_trip_check
from .errors import DomainViolation

__all__ = ["CaseResult", "SuiteReport", "SUITE_NAMES", "run_suite", "run_all"]

_BRACKET_MARGIN = 1e-2
_MAX_DRAWS = 10_000


@dataclass(frozen=True)
class CaseResult:
    name: str
    max_rel_err: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    seed: int
    cases: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cases)

    @property
    def tolerances(self) -> dict:
        return {c.name: c.tolerance for c in self.cases}

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "seed": int(self.seed),
            "tolerances": {k: float(v) for k, v in self.tolerances.items()},
            "cases": [
                {"name": c.name, "max_rel_err": float(c.max_rel_err),
                 "pass": bool(c.passed)}
                for c in self.cases
            ],
            "pass": bool(self.passed),
        }


def _case(name: str, err: float, tol: float) -> CaseResult:
    err = float(err)
    return CaseResult(name=name, max_rel_err=err, tolerance=float(tol),
                      passed=err < tol)


# ---------------------------------------------------------------------------
# samplers


def _draw_index(rng) -> float:
    """Deformation index: occasionally the exact classical point."""
    if rng.uniform() < 0.1:
        return 1.0
    return float(rng.uniform(0.2, 2.8))


def _sample(draw):
    """Rejection sampling: the first result of ``draw()`` that is not None
    and raises no :class:`DomainViolation`, within ``_MAX_DRAWS`` calls."""
    for _ in range(_MAX_DRAWS):
        try:
            value = draw()
        except DomainViolation:
            continue
        if value is not None:
            return value
    raise RuntimeError("rejection sampling failed to find a domain point")


def _inside(q, *args) -> bool:
    """Whether exp_q of every argument has its bracket above the margin; the
    bracket 1 + (1-q)*x is monotone in x, so the extreme argument decides."""
    return q_exp_bracket(q, min(args) if q < 1.0 else max(args)) > _BRACKET_MARGIN


def _draw_exp_arg(rng, q, lo=-3.0, hi=3.0, shift=0.0) -> float:
    """Uniform x on [lo, hi] with exp_q(x + shift) inside the margin."""
    def draw():
        x = float(rng.uniform(lo, hi))
        return x if _inside(q, x + shift) else None
    return _sample(draw)


def _draw_positive(rng, lo=0.2, hi=5.0) -> float:
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


# ---------------------------------------------------------------------------
# identities suite


def _identities(seed: int, samples: int = 10_000) -> tuple:
    rng = np.random.default_rng(seed)
    cases = []

    worst = 0.0
    for _ in range(samples):
        q = _draw_index(rng)
        x = _draw_exp_arg(rng, q)
        worst = max(worst, round_trip_check(q, x) / max(1.0, abs(x)))
        y = _draw_positive(rng, 0.05, 20.0)
        worst = max(worst, abs(q_exp(q, q_log(q, y)) - y) / y)
    cases.append(_case("round_trip", worst, 1e-12))

    worst = 0.0
    for _ in range(samples):
        q = _draw_index(rng)

        def draw():
            x1 = float(rng.uniform(-2.0, 2.0))
            x2 = float(rng.uniform(-2.0, 2.0))
            if _inside(q, x1, x2, x1 + x2):
                return x1, x2
        x1, x2 = _sample(draw)
        worst = max(worst, algebra.q_exp_law_check(q, x1, x2))
    cases.append(_case("q_exp_law", worst, 1e-12))

    worst_comm = 0.0
    worst_assoc = 0.0
    for _ in range(samples):
        q = _draw_index(rng)

        def draw():
            x = _draw_positive(rng)
            y = _draw_positive(rng)
            z = _draw_positive(rng)
            if not (algebra.q_product_bracket(q, x, y) > _BRACKET_MARGIN
                    and algebra.q_product_bracket(q, y, z) > _BRACKET_MARGIN):
                return None
            xy = algebra.q_product(q, x, y)
            yz = algebra.q_product(q, y, z)
            if (algebra.q_product_bracket(q, xy, z) > _BRACKET_MARGIN
                    and algebra.q_product_bracket(q, x, yz) > _BRACKET_MARGIN):
                return x, y, z, xy, yz
        x, y, z, xy, yz = _sample(draw)
        worst_comm = max(worst_comm,
                         abs(xy - algebra.q_product(q, y, x)) / xy)
        left = algebra.q_product(q, xy, z)
        right = algebra.q_product(q, x, yz)
        worst_assoc = max(worst_assoc, abs(left - right) / max(left, right))
    cases.append(_case("q_product_commutative", worst_comm, 1e-12))
    cases.append(_case("q_product_associative", worst_assoc, 1e-12))

    worst = 0.0
    for _ in range(samples):
        q = _draw_index(rng)
        c = _draw_exp_arg(rng, q, -2.0, 2.0)
        x = _draw_exp_arg(rng, q, shift=c)
        y_scale, x_scale = dynamics.shift_expansion(q, c)
        lhs = q_exp(q, x + c)
        rhs = y_scale * q_exp(q, x / x_scale)
        worst = max(worst, abs(lhs - rhs) / lhs)
    cases.append(_case("shift_expansion", worst, 1e-12))

    worst = 0.0
    for _ in range(samples):
        q = _draw_index(rng)

        def draw():
            y = _draw_positive(rng, 0.1, 10.0)
            x = _draw_positive(rng, 0.1, 10.0)
            # keep the ratio away from 1 so the relative metric is meaningful
            if abs(y / x - 1.0) > 0.05:
                return y, x
        y, x = _sample(draw)
        a = q_log_of_ratio(q, y, x)
        b = q_log(q, y / x)
        worst = max(worst, abs(a - b) / max(abs(a), abs(b)))
    cases.append(_case("q_log_of_ratio", worst, 1e-12))

    violations = 0
    for q in (0.3, 0.5, 1.0, 1.3, 1.7, 2.0, 2.5):
        values = [q_log(q, y) for y in np.logspace(-2.0, 2.0, 1000)]
        violations += sum(b <= a for a, b in zip(values, values[1:]))
    cases.append(_case("q_log_monotone_violations", violations, 0.5))

    worst = 0.0
    xs = np.linspace(-5.0, 5.0, 201)
    for q in (1.0 - 1e-6, 1.0 + 1e-6):
        for x in xs:
            ref = math.exp(x)
            worst = max(worst, abs(q_exp(q, float(x)) - ref) / ref)
    cases.append(_case("classical_limit_continuity", worst, 1e-4))

    worst = 0.0
    for _ in range(2000):
        q = _draw_index(rng)

        def draw():
            shifts = rng.uniform(-1.0, 1.0, size=int(rng.integers(1, 7)))
            seq = algebra.scale_drift_expand(q, shifts)
            total = float(np.sum(shifts))
            if _inside(q, total):
                return seq, total
        seq, total = _sample(draw)
        product = math.prod(q_exp(q, o) for o in seq.observed)
        ref = q_exp(q, total)
        worst = max(worst, abs(product - ref) / ref)
    cases.append(_case("scale_drift_product", worst, 1e-10))

    worst = 0.0
    for _ in range(2000):
        q = _draw_index(rng)

        def draw():
            factors = [_draw_positive(rng, 0.3, 4.0)
                       for _ in range(int(rng.integers(1, 6)))]
            # every step of the left fold keeps its bracket inside the margin
            acc = factors[0]
            for f in factors[1:]:
                if not algebra.q_product_bracket(q, acc, f) > _BRACKET_MARGIN:
                    return None
                acc = algebra.q_product(q, acc, f)
            return factors
        factors = _sample(draw)
        folded = algebra.q_product_fold(q, factors)
        ref = q_exp(q, algebra.q_log_sum(q, factors))
        worst = max(worst, abs(folded - ref) / ref)
    cases.append(_case("fold_vs_qlog_sum", worst, 1e-12))

    return tuple(cases)


# ---------------------------------------------------------------------------
# dynamics suite


def _trajectory_error(q, direction, x0, y0, x_end, step) -> float:
    traj = dynamics.integrate_ode(q, x0, y0, direction, x_end, step)
    scale = dynamics.rescale_factor(q, x0, y0) if direction == 1 else \
        q_exp(q, q_log(q, y0) + x0)
    worst = 0.0
    for x, y in zip(traj.xs, traj.ys):
        ref = dynamics.analytic_solution(q, scale, direction, float(x))
        worst = max(worst, abs(y - ref) / ref)
    return worst


def _dynamics(seed: int) -> tuple:
    rng = np.random.default_rng(seed)
    cases = []

    cases.append(_case("rk4_vs_analytic_decay",
                       _trajectory_error(1.3, -1, 0.0, 1.0, 5.0, 1e-3), 1e-6))
    cases.append(_case("rk4_vs_analytic_growth",
                       _trajectory_error(2.0, 1, 0.0, 1.0, 0.5, 1e-3), 1e-6))

    q = dynamics.FIG2_INDEX
    worst = 0.0
    for c in dynamics.FIG2_SCALES:
        span = 5.0 * c ** (1.0 - q)
        traj = dynamics.integrate_ode(q, 0.0, c, -1, span, 1e-3)
        xt = traj.xs / c ** (1.0 - q)
        yt = traj.ys / c
        slope_fd = (yt[2:] - yt[:-2]) / (xt[2:] - xt[:-2])
        slope_ode = -yt[1:-1] ** q
        worst = max(worst, float(np.max(np.abs(slope_fd - slope_ode)
                                        / np.abs(slope_ode))))
    cases.append(_case("rescaled_trajectory_invariance", worst, 1e-4))

    worst = 0.0
    for _ in range(1000):
        qi = _draw_index(rng)

        def draw():
            c1 = float(rng.uniform(-1.5, 1.5))
            c2 = float(rng.uniform(-1.5, 1.5))
            x = float(rng.uniform(-2.0, 2.0))
            if _inside(qi, c1, c2, c1 + c2, x + c1 + c2):
                return c1, c2, x
        c1, c2, x = _sample(draw)
        direct = q_exp(qi, x + c1 + c2)
        # pulling one shift out, the remainder staying in the rescaled argument
        e1 = q_exp(qi, c1)
        one_step = e1 * q_exp(qi, (x + c2) / e1 ** (1.0 - qi))
        # pulling the total shift out in a single expansion
        y_scale, x_scale = dynamics.shift_expansion(qi, c1 + c2)
        single = y_scale * q_exp(qi, x / x_scale)
        worst = max(worst, abs(one_step - direct) / direct,
                    abs(single - direct) / direct)
        # two rescaled-coordinate shifts compose into one shift of the
        # deformed sum c1 + c2 + (1-q) c1 c2
        comp_y, comp_x = dynamics.compose_shifts(qi, c1, c2)
        ref_y, ref_x = dynamics.shift_expansion(
            qi, c1 + c2 + (1.0 - qi) * c1 * c2)
        worst = max(worst, abs(comp_y - ref_y) / ref_y,
                    abs(comp_x - ref_x) / abs(ref_x))
    cases.append(_case("sequential_shift_composition", worst, 1e-12))

    table = dynamics.fig2_data()
    cases.append(_case("fig2_rescaled_pointwise",
                       _pointwise_curve_deviation(table), 1e-12))
    cases.append(_case("fig2_qlog_affine",
                       _qlog_residual(table, power=1), 1e-9))

    return tuple(cases)


def _pointwise_curve_deviation(table) -> float:
    """Worst relative gap of each curve's rescaled ordinates to the first's."""
    y = table.column("y_rescaled").reshape(len(table.meta["scales"]), -1)
    return float(np.max(np.abs(y - y[0]) / np.abs(y[0])))


def _qlog_residual(table, power: int) -> float:
    """Worst gap of qlog_y to -x_raw**power + log_q(scale) of its curve."""
    intercepts = np.repeat(table.meta["qlog_intercepts"], table.meta["grid_points"])
    expected = -(table.column("x_raw") ** power) + intercepts
    return float(np.max(np.abs(table.column("qlog_y") - expected)))


# ---------------------------------------------------------------------------
# stirling / entropy suite


def _stirling(seed: int) -> tuple:
    rng = np.random.default_rng(seed)
    cases = []

    violations = 0
    for q in (0.5, 1.0, 1.5, 2.0, 2.5):
        errs = []
        for n in (10, 100, 1000, 10_000):
            exact = combinatorics.q_log_factorial(q, n)
            errs.append(abs(combinatorics.q_stirling(q, n) - exact) / abs(exact))
        violations += sum(b > a for a, b in zip(errs, errs[1:]))
    cases.append(_case("stirling_error_monotone_violations", violations, 0.5))

    worst = 0.0
    for _ in range(50):
        u = rng.uniform(0.1, 1.0, size=10)
        p = u / u.sum()
        shannon = combinatorics.tsallis_entropy(1.0, p)
        for q in (1.0 - 1e-6, 1.0 + 1e-6):
            worst = max(worst, abs(combinatorics.tsallis_entropy(q, p) - shannon))
    cases.append(_case("entropy_classical_limit", worst, 1e-4))

    violations = 0
    for q in (0.5, 1.0, 2.0):
        for k in (2, 5, 10):
            u = np.ones(k) / k
            bound = combinatorics.tsallis_entropy(q, u)
            for _ in range(1000):
                v = rng.uniform(0.0, 1.0, size=k) + 1e-12
                p = v / v.sum()
                if combinatorics.tsallis_entropy(q, p) > bound + 1e-12:
                    violations += 1
    cases.append(_case("uniform_maximality_violations", violations, 0.5))

    violations = 0
    for q in (0.5, 1.0, 1.5):
        for ratios in ((1, 1), (1, 2, 3)):
            errs = []
            for n in (60, 600, 6000, 60_000):
                counts = [n * r // sum(ratios) for r in ratios]
                errs.append(combinatorics.tsallis_correspondence(q, counts)[2])
            violations += sum(b >= a for a, b in zip(errs, errs[1:]))
    cases.append(_case("tsallis_correspondence_trend_violations", violations, 0.5))

    violations = 0
    for ratios in ((1, 1), (1, 2, 3)):
        errs = []
        for n in (60, 600, 6000, 60_000):
            counts = [n * r // sum(ratios) for r in ratios]
            errs.append(combinatorics.tsallis_correspondence_q2(counts)[2])
        violations += sum(b >= a for a, b in zip(errs, errs[1:]))
    cases.append(_case("tsallis_correspondence_q2_trend_violations",
                       violations, 0.5))

    return tuple(cases)


# ---------------------------------------------------------------------------
# q-Gaussian / likelihood suite


def _integrate_density(model) -> float:
    """Independent full-line quadrature of the normalized density."""
    # imported here so that importing the package does not load scipy
    from scipy.integrate import quad

    pdf = lambda e: qgaussian.q_gaussian_pdf(model, e)
    if model.q < 1.0:
        edge = model.support_halfwidth()
        value, _ = quad(pdf, -edge, edge, points=[0.0],
                        epsabs=1e-12, epsrel=1e-12, limit=200)
        return value
    value, _ = quad(pdf, -np.inf, np.inf, epsabs=1e-12, epsrel=1e-12, limit=400)
    return value


def _mlp(seed: int) -> tuple:
    rng = np.random.default_rng(seed)
    cases = []

    worst = 0.0
    for q in (0.0, 0.5, 1.0, 1.5, 2.0, 2.5):
        for beta in (0.5, 1.0, 2.0):
            model = qgaussian.QGaussianModel.from_beta(q, beta)
            worst = max(worst, abs(_integrate_density(model) - 1.0))
    cases.append(_case("pdf_total_mass", worst, 1e-8))

    worst = 0.0
    negativity_violations = 0
    for q in (0.5, 1.3, 1.7):
        model = qgaussian.QGaussianModel.from_beta(q, 1.0)
        for _ in range(100):
            if q < 1.0:
                samples = rng.uniform(-0.5, 0.5, size=10)
            else:
                samples = rng.normal(0.0, 1.0, size=10)
            grad, curv = qgaussian.mlp_stationarity(model, samples)
            if not curv < 0.0:
                negativity_violations += 1
                continue
            scale = max(1.0, float(np.max(np.abs(samples - np.mean(samples)))))
            worst = max(worst, abs(grad) / (abs(curv) * scale))
    cases.append(_case("mlp_gradient_at_mean", worst, 1e-6))
    cases.append(_case("mlp_curvature_negative_violations",
                       negativity_violations, 0.5))

    worst = 0.0
    grid = np.linspace(-0.3, 0.3, 61)
    h = grid[1] - grid[0]
    for q in (0.5, 1.0, 1.3, 1.7, 2.0):
        model = qgaussian.QGaussianModel.from_beta(q, 1.0)
        lnq = np.asarray([q_log(q, qgaussian.q_gaussian_pdf(model, e))
                          for e in grid])
        second = (lnq[2:] - 2.0 * lnq[1:-1] + lnq[:-2]) / (h * h)
        mid = float(np.median(second))
        worst = max(worst, float(np.max(np.abs(second - mid) / abs(mid))))
    cases.append(_case("lnq_density_quadratic", worst, 1e-6))

    worst = 0.0
    for q, coeff, offset in ((1.0, -2.0, 0.0), (1.7, -2.0, 0.5),
                             (0.5, -3.0, 0.2), (2.0, -1.0, -0.3)):
        model = qgaussian.QGaussianModel(q=q, ode_coeff=coeff, log_offset=offset)
        for e in np.linspace(-1.0, 1.0, 41):
            res = qgaussian.defining_ode_residual(model, float(e))
            budget = 1e-5 * abs(coeff * e) + 1e-8
            worst = max(worst, abs(res) / budget)
    cases.append(_case("defining_ode_residual", worst, 1.0))

    worst = 0.0
    grid = np.linspace(-3.0, 3.0, 201)
    for c in (1.0, 10.0, 100.0):
        table = qgaussian.frequency_rescale(
            qgaussian.FIG3_INDEX, 1.0, q_log(qgaussian.FIG3_INDEX, c), grid)
        rescaled = table.column("f_rescaled")
        reference = table.column("reference")
        worst = max(worst, float(np.max(np.abs(rescaled - reference)
                                        / reference)))
    cases.append(_case("frequency_rescaling_invariance", worst, 1e-12))

    table = qgaussian.fig3_data()
    cases.append(_case("fig3_rescaled_pointwise",
                       _pointwise_curve_deviation(table), 1e-12))
    cases.append(_case("fig3_qlog_parabola",
                       _qlog_residual(table, power=2), 1e-9))

    return tuple(cases)


# ---------------------------------------------------------------------------
# canonical-representation suite


def _canonical(seed: int) -> tuple:
    rng = np.random.default_rng(seed)
    cases = []

    xs = rng.uniform(-0.9, 1.1, size=10)
    report = canonical.verify_uniqueness(1.5, xs, 1.0, n_splits=200,
                                         seed=int(rng.integers(2**31)))
    cases.append(_case("split_probability_invariance",
                       report.max_probability_deviation, 1e-12))
    structural = int(report.rejected > 0)
    structural += int(report.distinct_parameterizations
                      != report.n_splits - report.rejected)
    structural += int(not report.canonical_bit_stable)
    cases.append(_case("uniqueness_structure_violations", structural, 0.5))

    worst = 0.0
    for i in range(200):
        qi = (0.5, 1.0, 1.5, 2.0)[i % 4]

        def draw():
            pts = rng.uniform(-1.0, 1.0, size=int(rng.integers(2, 12)))
            shift = float(rng.uniform(-0.5, 1.5))
            if _inside(qi, *(-x + shift for x in pts)):
                return pts, shift
        pts, shift = _sample(draw)
        dist = canonical.build_distribution(qi, pts, shift)
        form = canonical.canonical_form(dist)
        for x, p in zip(dist.xs, dist.probabilities):
            worst = max(worst, abs(form.reconstruct(x) - p) / p)
    cases.append(_case("canonical_reconstruction", worst, 1e-10))

    worst = 0.0
    pts = rng.uniform(-1.0, 1.0, size=8)
    base = canonical.build_distribution(1.0, pts, 0.3)
    other = canonical.build_distribution(1.0, pts, 1.7)
    worst = max(worst, float(np.max(np.abs(np.asarray(base.probabilities)
                                           - np.asarray(other.probabilities)))))
    fa = canonical.canonical_form(base)
    fb = canonical.canonical_form(other)
    worst = max(worst, abs(fa.slope - fb.slope),
                abs(fa.intercept - fb.intercept))
    cases.append(_case("classical_shift_independence", worst, 1e-12))

    dist = canonical.build_distribution(2.0, [0.0, 1.0], 0.0)
    form = canonical.canonical_form(dist)
    worst = max(abs(dist.probabilities[0] - 2.0 / 3.0),
                abs(dist.probabilities[1] - 1.0 / 3.0),
                abs(form.slope + 1.5), abs(form.intercept + 0.5))
    cases.append(_case("worked_two_point_model", worst, 1e-14))

    return tuple(cases)


# ---------------------------------------------------------------------------
# registry


_SUITES = {
    "identities": _identities,
    "dynamics": _dynamics,
    "stirling": _stirling,
    "mlp": _mlp,
    "canonical": _canonical,
}

SUITE_NAMES = tuple(_SUITES) + ("all",)


def run_suite(name: str, seed: int = 0) -> SuiteReport:
    """Run one named suite (or ``all``) with the given seed."""
    if name == "all":
        return run_all(seed)
    if name not in _SUITES:
        raise KeyError(f"unknown suite {name!r}; expected one of {SUITE_NAMES}")
    return SuiteReport(suite=name, seed=int(seed), cases=_SUITES[name](seed))


def run_all(seed: int = 0) -> SuiteReport:
    """Run every suite with the same seed; case names are suite-prefixed."""
    cases = []
    for name, runner in _SUITES.items():
        for case in runner(seed):
            cases.append(CaseResult(name=f"{name}/{case.name}",
                                    max_rel_err=case.max_rel_err,
                                    tolerance=case.tolerance,
                                    passed=case.passed))
    return SuiteReport(suite="all", seed=int(seed), cases=tuple(cases))
