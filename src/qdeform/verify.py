"""Seeded verification suites over the package's mathematical invariants.

Each suite draws its inputs from ``numpy.random.default_rng(seed)`` (PCG64;
the seed is recorded in the report) so a report is reproducible
byte-for-byte.

A suite is a generator: per case it yields the name, the tolerance and the
errors, one number the case measured or an iterable streaming its per-row
errors.  One reducer makes them ``max_rel_err``, their maximum, read to the
last so that later cases draw what they always drew; a NaN is the worst
error and fails the case.  Trend and ordering checks yield a violation
count with tolerance 0.5 (zero violations pass), each comparison written
as the negation of the order it requires, so that a NaN step counts.

A randomized case draws all of its rows up front with array Generator calls
and checks each row through the public scalar functions the CLI serves.
Rows lie inside their domain brackets with a safety margin, so reported
errors measure the identities, not boundary conditioning: a lone exp_q
argument is drawn uniformly on the part of its range that clears the
margin, and rows under several constraints are redrawn until all hold.
Nothing is rejected after the draw: a ``DomainViolation`` from a checked
function is a fault, and it propagates.

A case must be able to fail: it may not hold by construction (compare a
value with itself, or with the same floating-point operations reordered
where IEEE arithmetic makes them equal), and it may not re-check what
another case already measures on the same functions.

Every split c = c1 + c2 of a shift gives another exp_q surface form of one
distribution.  The canonical suite compares each split's probabilities
with the unsplit ones, and fits log_q(p) against x on each split's own
vector to measure the one affine form instead of rebuilding it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial, reduce

import numpy as np

from . import _EXPORTS, algebra, canonical, combinatorics, dynamics, qgaussian
from ._array import _lift_array, _q_log_array
from .core import q_exp, q_exp_bracket, q_log, q_log_of_ratio
from .errors import DomainViolation

__all__ = _EXPORTS["verify"]

_BRACKET_MARGIN = 1e-2
_MAX_DRAWS = 10_000
_SAMPLES = 10_000  # rows of an identities case (the drift and fold cases draw 2000)


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


def _max_error(errors) -> float:
    """A case's ``max_rel_err``: the largest of its errors, one number or an
    iterable of them, each read once; a NaN is kept as the worst."""
    if not hasattr(errors, "__iter__"):
        errors = (errors,)
    largest = 0.0
    for err in errors:
        # a NaN fails every comparison: it is taken, and then kept
        if not err <= largest and largest == largest:
            largest = err
    return float(largest)


def _run_cases(suite, seed: int) -> tuple:
    """The CaseResult of every case the suite generator yields, each case's
    errors reduced before the suite is resumed to draw the next one's rows."""
    results = []
    for name, tol, errors in suite(np.random.default_rng(seed)):
        err = _max_error(errors)
        results.append(CaseResult(name=name, max_rel_err=err, tolerance=float(tol),
                                  passed=err < tol))
    return tuple(results)


# ---------------------------------------------------------------------------
# samplers


def _draw_indices(rng, n: int) -> np.ndarray:
    """Deformation indices: 10% exactly the classical point, the rest
    uniform on [0.2, 2.8]."""
    q = rng.uniform(0.2, 2.8, size=n)
    q[rng.random(n) < 0.1] = 1.0
    return q


def _draw_positives(rng, shape, lo=0.2, hi=5.0) -> np.ndarray:
    """Log-uniform values on [lo, hi]."""
    return np.exp(rng.uniform(math.log(lo), math.log(hi), size=shape))


def _draw_exp_args(rng, q, lo=-3.0, hi=3.0, shift=0.0) -> np.ndarray:
    """Per row, x uniform on [lo, hi] cut to 1 + (1-q)(x + shift) > margin."""
    omq = 1.0 - q
    cut = (_BRACKET_MARGIN - 1.0) / np.where(omq == 0.0, 1.0, omq) - shift
    low = np.where(omq > 0.0, np.maximum(lo, cut), lo)
    high = np.where(omq < 0.0, np.minimum(hi, cut), hi)
    if not np.all(low < high):
        raise RuntimeError("no exp_q argument in range clears the bracket margin")
    return rng.uniform(low, high)


def _in_margin(q, *args) -> np.ndarray:
    """Rows where exp_q has its bracket above the margin at every argument."""
    return np.logical_and.reduce([q_exp_bracket(q, a) > _BRACKET_MARGIN
                                  for a in args])


def _sample_rows(n: int, draw, accept) -> list:
    """Rejection sampling of n rows at once: ``draw(k)`` returns arrays of k
    rows, and the rows where ``accept(*values)`` is False are drawn again,
    up to ``_MAX_DRAWS`` times."""
    values = list(draw(n))
    for _ in range(_MAX_DRAWS):
        rejected = np.flatnonzero(~accept(*values))
        if rejected.size == 0:
            return values
        for full, part in zip(values, draw(rejected.size)):
            full[rejected] = part
    raise RuntimeError("rejection sampling failed to find a domain point")


# ---------------------------------------------------------------------------
# identities suite


def _identities(rng):
    def round_trips():
        q = _draw_indices(rng, _SAMPLES)
        x = _draw_exp_args(rng, q)
        y = _draw_positives(rng, _SAMPLES, 0.05, 20.0)
        for qi, xi, yi in zip(q.tolist(), x.tolist(), y.tolist()):
            yield abs(q_log(qi, q_exp(qi, xi)) - xi) / max(1.0, abs(xi))
            yield abs(q_exp(qi, q_log(qi, yi)) - yi) / yi
    yield "round_trip", 1e-12, round_trips()

    def exp_laws():
        q = _draw_indices(rng, _SAMPLES)
        x1, x2 = _sample_rows(_SAMPLES, lambda k: rng.uniform(-2.0, 2.0, size=(2, k)),
                              lambda x1, x2: _in_margin(q, x1, x2, x1 + x2))
        for qi, x1i, x2i in zip(q.tolist(), x1.tolist(), x2.tolist()):
            lhs = q_exp(qi, x1i + x2i)
            rhs = algebra.q_product(qi, q_exp(qi, x1i), q_exp(qi, x2i))
            yield abs(lhs - rhs) / lhs
    yield "q_exp_law", 1e-12, exp_laws()

    def associativity():
        def products_in_margin(x, y, z):
            # brackets of x*y, y*z, and of (x*y)*z and x*(y*z): log_q is
            # additive over q-products, so a bracket is 1 plus its factors' lifts
            tx, ty, tz = (_lift_array(q, v) for v in (x, y, z))
            lowest = np.minimum(np.minimum(tx, tz) + ty, tx + ty + tz)
            return lowest > _BRACKET_MARGIN - 1.0

        q = _draw_indices(rng, _SAMPLES)
        x, y, z = _sample_rows(_SAMPLES, lambda k: _draw_positives(rng, (3, k)),
                               products_in_margin)
        for qi, xi, yi, zi in zip(q.tolist(), x.tolist(), y.tolist(), z.tolist()):
            left = algebra.q_product(qi, algebra.q_product(qi, xi, yi), zi)
            right = algebra.q_product(qi, xi, algebra.q_product(qi, yi, zi))
            yield abs(left - right) / max(left, right)
    yield "q_product_associative", 1e-12, associativity()

    def shift_expansions():
        q = _draw_indices(rng, _SAMPLES)
        c = _draw_exp_args(rng, q)
        x = _draw_exp_args(rng, q, shift=c)
        for qi, ci, xi in zip(q.tolist(), c.tolist(), x.tolist()):
            y_scale, x_scale = dynamics.shift_expansion(qi, ci)
            lhs = q_exp(qi, xi + ci)
            rhs = y_scale * q_exp(qi, xi / x_scale)
            yield abs(lhs - rhs) / lhs
    yield "shift_expansion", 1e-12, shift_expansions()

    def ratios():
        # y = x r, x of at most 20 significant bits over 1e+-30 (where log_q x
        # saturates) and r = 2**k or 1 +- 2**-m, m <= 33: y / x is exactly r
        q = _draw_indices(rng, _SAMPLES)
        mantissa, exponent = np.frexp(_draw_positives(rng, _SAMPLES, 1e-30, 1e30))
        x = np.ldexp(np.round(np.ldexp(mantissa, 20)), exponent - 20)
        sign = rng.choice([-1, 1], size=(2, _SAMPLES))
        r = np.where(rng.random(_SAMPLES) < 0.5,
                     np.ldexp(1.0, sign[0] * rng.integers(1, 41, size=_SAMPLES)),
                     1.0 + sign[1] * np.ldexp(1.0, -rng.integers(1, 34, size=_SAMPLES)))
        for qi, yi, xi, ri in zip(q.tolist(), (x * r).tolist(), x.tolist(), r.tolist()):
            yield abs(q_log_of_ratio(qi, yi, xi) / q_log(qi, ri) - 1.0)
    yield "q_log_of_ratio", 1e-12, ratios()

    violations = 0
    for q in (0.3, 0.5, 1.0, 1.3, 1.7, 2.0, 2.5):
        values = [q_log(q, y) for y in np.logspace(-2.0, 2.0, 1000)]
        violations += sum(not b > a for a, b in zip(values, values[1:]))
    yield "q_log_monotone_violations", 0.5, violations

    # against e^x (1 - (1-q) x**2/2), exp_q's first order; exp_{2-q} reads (1-q) x**2
    def classical_limits():
        for q in (1.0 - 1e-6, 1.0 + 1e-6):
            for x in np.linspace(-5.0, 5.0, 201).tolist():
                ref = math.exp(x) * (1.0 - (1.0 - q) * x * x / 2.0)
                yield abs(q_exp(q, x) - ref) / ref
    yield "classical_limit_continuity", 1e-7, classical_limits()

    def drift_products():
        def drifts(k):
            # one to six shifts a row, zeros after them leaving every sum alone
            count = rng.integers(1, 7, size=k)
            shifts = rng.uniform(-1.0, 1.0, size=(k, 6))
            shifts[np.arange(6) >= count[:, None]] = 0.0
            return count, shifts

        def drift_in_domain(count, shifts):
            # every partial-sum scale factor positive, the total's above the margin
            factors = q_exp_bracket(q[:, None], np.cumsum(shifts, axis=1))
            return (factors > 0.0).all(axis=1) & (factors[:, -1] > _BRACKET_MARGIN)

        q = _draw_indices(rng, 2000)
        count, shifts = _sample_rows(2000, drifts, drift_in_domain)
        for qi, k, row in zip(q.tolist(), count.tolist(), shifts.tolist()):
            seq = algebra.scale_drift_expand(qi, row[:k])
            product = math.prod(q_exp(qi, o) for o in seq.observed)
            ref = q_exp(qi, sum(row[:k]))
            yield abs(product - ref) / ref
    yield "scale_drift_product", 1e-10, drift_products()

    def folds():
        def fold_in_margin(count, f):
            # every step of the left fold keeps its bracket inside the margin
            brackets = 1.0 + np.cumsum(_lift_array(q[:, None], f), axis=1)
            steps = np.arange(1, 5) < count[:, None]
            return (~steps | (brackets[:, 1:] > _BRACKET_MARGIN)).all(axis=1)

        q = _draw_indices(rng, 2000)
        count, f = _sample_rows(
            2000, lambda k: (rng.integers(1, 6, size=k),
                             _draw_positives(rng, (k, 5), 0.3, 4.0)), fold_in_margin)
        # the closed form against the left fold through the public q_product
        for qi, k, row in zip(q.tolist(), count.tolist(), f.tolist()):
            folded = algebra.q_product_fold(qi, row[:k])
            ref = reduce(partial(algebra.q_product, qi), row[:k])
            yield abs(folded - ref) / ref
    yield "fold_vs_qlog_sum", 1e-12, folds()


# ---------------------------------------------------------------------------
# dynamics suite


def _rk4(q, x0, y0, d, x_end, step):
    """(xs, ys) of classical RK4 for dy/dx = d * y**q on integrate_ode's grid,
    a loop carrying y alone: the closed form's oracle, on fixed in-domain grids."""
    n_steps = max(1, math.ceil((x_end - x0) / step))
    h = (x_end - x0) / n_steps
    xs = x0 + np.arange(n_steps + 1) * h
    xs[0] = x0
    dh, dhalf, dsixth = d * h, d * (0.5 * h), d * (h / 6.0)  # (d*c)*k == c*(d*k) for d = +-1
    ys, y = [y0], y0
    for _ in range(n_steps):
        k1 = y ** q
        k2 = (y + dhalf * k1) ** q
        k3 = (y + dhalf * k2) ** q
        y = y + dsixth * (k1 + 2.0 * k2 + 2.0 * k3 + (y + dh * k3) ** q)
        ys.append(y)
    return xs, np.asarray(ys)


def _trajectory_errors(q, direction, x0, y0, x_end, step):
    """Relative gap of each RK4 point to the analytic solution."""
    xs, ys = _rk4(q, x0, y0, direction, x_end, step)
    scale = dynamics.rescale_factor(q, direction * x0, y0)
    for x, y in zip(xs.tolist(), ys.tolist()):
        ref = dynamics.analytic_solution(q, scale, direction, x)
        yield abs(y - ref) / ref


def _dynamics(rng):
    yield ("rk4_vs_analytic_decay", 1e-6,
           _trajectory_errors(1.3, -1, 0.0, 1.0, 5.0, 1e-3))
    yield ("rk4_vs_analytic_growth", 1e-6,
           _trajectory_errors(2.0, 1, 0.0, 1.0, 0.5, 1e-3))

    def rescaled_slopes():
        q = dynamics.FIG2_INDEX
        for c in dynamics.FIG2_SCALES:
            span = 5.0 * c ** (1.0 - q)
            xs, ys = _rk4(q, 0.0, c, -1, span, 1e-3)
            xt = xs / c ** (1.0 - q)
            yt = ys / c
            slope_fd = (yt[2:] - yt[:-2]) / (xt[2:] - xt[:-2])
            slope_ode = -yt[1:-1] ** q
            yield float(np.max(np.abs(slope_fd - slope_ode) / np.abs(slope_ode)))
    yield "rescaled_trajectory_invariance", 1e-4, rescaled_slopes()

    # two rescaled-coordinate shifts compose into one shift of the deformed
    # sum c1 + c2 + (1-q) c1 c2, whose bracket b1 * b2 stays above the
    # margin when those of c1, c2 and c1 + c2 (b1 + b2 - 1) do
    def compositions():
        qs = _draw_indices(rng, 1000)
        c1s, c2s = _sample_rows(1000, lambda k: rng.uniform(-1.5, 1.5, size=(2, k)),
                                lambda c1, c2: _in_margin(qs, c1, c2, c1 + c2))
        for qi, c1, c2 in zip(qs.tolist(), c1s.tolist(), c2s.tolist()):
            comp_y, comp_x = dynamics.compose_shifts(qi, c1, c2)
            ref_y, ref_x = dynamics.shift_expansion(
                qi, c1 + c2 + (1.0 - qi) * c1 * c2)
            yield abs(comp_y - ref_y) / ref_y
            yield abs(comp_x - ref_x) / abs(ref_x)
    yield "sequential_shift_composition", 1e-12, compositions()

    yield "fig2_qlog_affine", 1e-9, _qlog_residual(dynamics.fig2_data(), power=1)


def _qlog_residual(table, power: int) -> float:
    """Worst gap of qlog_y to -x_raw**power + log_q(scale) of its curve."""
    intercepts = np.repeat(table.meta["qlog_intercepts"], table.meta["grid_points"])
    expected = -(table.column("x_raw") ** power) + intercepts
    return float(np.max(np.abs(table.column("qlog_y") - expected)))


# ---------------------------------------------------------------------------
# stirling / entropy suite


def _exact_log_factorial(q: float, n: int) -> float:
    """The oracle of the log-factorial: the compensated sum of all n terms."""
    return math.fsum(_q_log_array(q, np.arange(1, n + 1, dtype=float)).tolist())


def _stirling(rng):
    violations = 0
    for q in (0.5, 1.0, 1.5, 2.0, 2.5):
        errs = []
        for n in (10, 100, 1000, 10_000):
            exact = _exact_log_factorial(q, n)
            errs.append(abs(combinatorics.q_stirling(q, n) - exact) / abs(exact))
        violations += sum(not b <= a for a, b in zip(errs, errs[1:]))
    yield "stirling_error_monotone_violations", 0.5, violations

    def tails():
        for q in (-1.0, 0.5, 1.0 - 1e-9, 1.0, 1.5, 2.0 - 1e-9, 2.0, 2.5):
            for n in (1025, 4096, 30_000):
                exact = _exact_log_factorial(q, n)
                yield abs(combinatorics.q_log_factorial(q, n) - exact) / exact
    yield "log_factorial_tail", 1e-12, tails()

    # S_q = S_1 + (q - 1) dS/dq + O((q - 1)**2), dS/dq = -sum p ln(p)**2 / 2 at
    # q = 1: measured against the first-order term, a flipped deformation
    # S_{2-q} reads 2 (q - 1) dS/dq
    def entropy_limits():
        for u in rng.uniform(0.1, 1.0, size=(50, 10)):
            p = u / u.sum()
            shannon = combinatorics.tsallis_entropy(1.0, p)
            slope = -0.5 * math.fsum((p * np.log(p) ** 2).tolist())
            for q in (1.0 - 1e-6, 1.0 + 1e-6):
                yield abs(combinatorics.tsallis_entropy(q, p) - shannon
                          - (q - 1.0) * slope)
    yield "entropy_classical_limit", 1e-9, entropy_limits()

    violations = 0
    for q in (0.5, 1.0, 2.0):
        for k in (2, 5, 10):
            bound = combinatorics.tsallis_entropy(q, np.ones(k) / k)
            v = rng.uniform(0.0, 1.0, size=(1000, k)) + 1e-12
            for p in (v / v.sum(axis=1, keepdims=True)).tolist():
                if not combinatorics.tsallis_entropy(q, p) <= bound + 1e-12:
                    violations += 1
    yield "uniform_maximality_violations", 0.5, violations

    violations = 0
    for q in (0.5, 1.0, 1.5, 2.0):
        for ratios in ((1, 1), (1, 2, 3)):
            errs = []
            for n in (60, 600, 6000, 60_000):
                counts = [n * r // sum(ratios) for r in ratios]
                errs.append(combinatorics.tsallis_correspondence(q, counts)[2])
            violations += sum(not b < a for a, b in zip(errs, errs[1:]))
    yield "tsallis_correspondence_trend_violations", 0.5, violations


# ---------------------------------------------------------------------------
# q-Gaussian / likelihood suite


# The oracle of ``pdf_total_mass`` is double-exponential quadrature
# (Takahasi & Mori, Publ. RIMS Kyoto Univ. 9 (1974) 721) in plain ``math``:
# it shares nothing with the closed-form normalization it checks, and it
# loads no quadrature library into the CLI.
_DE_TOL = 1e-14        # relative agreement of two successive step halvings
_DE_LEVELS = 10        # halvings before the finest estimate is returned
_DE_TAIL = 2.0 ** -60  # mass the sinh-sinh range may leave out, relative
_DE_MAX_LOG_REACH = math.log(1e150)  # keeps beta * e**2 <= 1e300 at every node


def _integrate_density(model) -> float:
    """Total mass of the normalized density: the trapezoid rule in t after

        e = edge * tanh(lam * sinh t)    on the support |e| < edge   (q < 1),
        e = width * sinh(lam * sinh t)   on the whole line           (q >= 1),

    halving the step, with the previous level's sum reused, until two
    levels agree to ``_DE_TOL``.  Here width = 1/sqrt(beta), and lam makes
    both maps (pi/2) * width * sinh t near 0, so the same steps resolve
    the bell for every q and beta.

    Past lam * sinh t = 19, tanh rounds to 1 and every tanh-sinh node is
    the edge.  For q > 1 the density in r = e/width is
    (1 + (q-1) r**2)**(-1/(q-1)), and the mass past r = R falls like
    R**(-(3-q)/(q-1)); the sinh-sinh range is the R that leaves
    ``_DE_TAIL``, capped at 1e150 so that beta * e**2 = r**2 stays finite.
    The cap leaves out 2e-17 of the mass at q = 2.8 but 1.2e-8 at q = 2.9
    and 18% at q = 2.99: nearer 3 the tail reaches past every double.
    """
    q, pdf = model.q, qgaussian.q_gaussian_pdf
    if q < 1.0:
        edge = model.support_halfwidth()
        lam = 0.5 * math.pi * math.sqrt(1.0 - q)

        def term(t):
            y = lam * math.sinh(t)
            z = math.exp(-2.0 * y)  # sech(y)**2 = 4z/(1+z)**2 cannot overflow
            return (pdf(model, edge * math.tanh(y)) * edge * lam * math.cosh(t)
                    * 4.0 * z / (1.0 + z) ** 2)

        t_max = math.asinh(19.0 / lam)
    else:
        width = 1.0 / math.sqrt(model.beta)
        lam = 0.5 * math.pi
        if q == 1.0:
            log_reach = 0.5 * math.log(-math.log(_DE_TAIL))  # exp(-R**2) = tail
        else:
            # one tail past R holds under (q-1)**(-1/(q-1)) * R**(-k) / k
            k = (3.0 - q) / (q - 1.0)
            log_reach = min(_DE_MAX_LOG_REACH,
                            (-math.log(_DE_TAIL) - math.log(q - 1.0) / (q - 1.0)
                             - math.log(k)) / k)

        def term(t):
            s = lam * math.sinh(t)
            return (pdf(model, width * math.sinh(s)) * width * lam * math.cosh(t)
                    * math.cosh(s))

        t_max = math.asinh(math.asinh(math.exp(log_reach)) / lam)

    # the integrand is even in t: sum t = 0 once and each t = j*h > 0 twice
    h = 1.0
    total = h * (term(0.0) + 2.0 * math.fsum(
        term(j * h) for j in range(1, int(t_max / h) + 1)))
    for _ in range(_DE_LEVELS):
        h /= 2.0
        finer = 0.5 * total + 2.0 * h * math.fsum(
            term(j * h) for j in range(1, int(t_max / h) + 1, 2))
        if abs(finer - total) <= _DE_TOL * finer:
            break
        total = finer
    return finer


_ODE_STEP = 1e-6  # central-difference step of _defining_ode_residual
_LIKELIHOOD_SAMPLES = 10  # samples a set of the likelihood_parabola case


def _defining_ode_residual(model, e: float) -> float:
    """Residual f'(e)/f(e)**q - ode_coeff * e of the defining equation.

    f is the unnormalized form exp_q(ode_coeff * e**2 / 2 + log_offset) and
    f' a central difference at step ``_ODE_STEP``, so the residual is
    bounded by 1e-5 * |ode_coeff * e| + 1e-8 at interior points.
    """
    q = model.q

    def f(t: float) -> float:
        return q_exp(q, 0.5 * model.ode_coeff * t * t + model.log_offset)

    derivative = (f(e + _ODE_STEP) - f(e - _ODE_STEP)) / (2.0 * _ODE_STEP)
    return derivative / f(e) ** q - model.ode_coeff * e


def _likelihood_terms(model, theta: float, samples) -> list:
    """The oracle of the likelihood: log_q pdf(x_i - theta) taken one sample
    at a time through the density.  A sample where the density is 0 raises
    :class:`DomainViolation` naming it."""
    theta = float(theta)
    q = model.q
    terms = []
    for i, x in enumerate(samples):
        f = qgaussian.q_gaussian_pdf(model, float(x) - theta)
        if f <= 0.0:
            e = float(x) - theta
            raise DomainViolation(
                f"sample {i} outside the density support",
                q_exp_bracket(q, -model.beta * e * e), index=i)
        terms.append(q_log(q, f))
    return terms


def _central_differences(model, samples):
    """First and second central differences of the per-sample likelihood
    sum at theta* = mean(samples), with step 1e-6 * max(1, largest
    deviation from the mean)."""
    xs = [float(x) for x in samples]
    theta_star = math.fsum(xs) / len(xs)
    spread = max(abs(x - theta_star) for x in xs)
    scale = max(1.0, spread)
    h = 1e-6 * scale
    l_plus = math.fsum(_likelihood_terms(model, theta_star + h, xs))
    l_minus = math.fsum(_likelihood_terms(model, theta_star - h, xs))
    l_mid = math.fsum(_likelihood_terms(model, theta_star, xs))
    gradient = (l_plus - l_minus) / (2.0 * h)
    curvature = (l_plus - 2.0 * l_mid + l_minus) / (h * h)
    return gradient, curvature


def _mlp(rng):
    def masses():
        for q in (0.0, 0.5, 1.0, 1.5, 2.0, 2.5):
            for beta in (0.5, 1.0, 2.0):
                model = qgaussian.QGaussianModel.from_beta(q, beta)
                yield abs(_integrate_density(model) - 1.0)
    yield "pdf_total_mass", 1e-8, masses()

    negative_curvatures = 0

    def gradients():
        nonlocal negative_curvatures
        for q in (0.5, 1.3, 1.7):
            model = qgaussian.QGaussianModel.from_beta(q, 1.0)
            if q < 1.0:
                draws = rng.uniform(-0.5, 0.5, size=(100, 10))
            else:
                draws = rng.normal(0.0, 1.0, size=(100, 10))
            for samples in draws:
                grad, curv = _central_differences(model, samples)
                if not curv < 0.0:
                    negative_curvatures += 1
                    continue
                scale = max(1.0, float(np.max(np.abs(samples - np.mean(samples)))))
                yield abs(grad) / (abs(curv) * scale)
    yield "mlp_gradient_at_mean", 1e-6, gradients()
    # counted while the runner reduced the gradients
    yield "mlp_curvature_negative_violations", 0.5, negative_curvatures

    # the closed-form likelihood, and the parabola its exact derivatives
    # span, L(theta* + s h) = L(theta*) + s h gradient + h**2 curvature / 2,
    # against the per-sample sum at theta* and theta* +- h, relative to the
    # sum of |terms|; deviations stay within 3/4 of a compact support
    def parabolas():
        for q in (0.0, 0.5, 1.0, 1.3, 1.7, 2.0, 2.5):
            for beta in (0.5, 1.0, 2.0):
                model = qgaussian.QGaussianModel.from_beta(q, beta)
                width = 1.0 / math.sqrt(beta)
                if q < 1.0:
                    samples = rng.uniform(-0.5 * width, 0.5 * width,
                                          size=_LIKELIHOOD_SAMPLES)
                else:
                    samples = rng.normal(0.0, width, size=_LIKELIHOOD_SAMPLES)
                grad, curv = qgaussian.mlp_stationarity(model, samples)
                theta, h = math.fsum(samples.tolist()) / samples.size, 0.25 * width
                for s in (0.0, -1.0, 1.0):
                    terms = _likelihood_terms(model, theta + s * h, samples)
                    exact, size = math.fsum(terms), math.fsum(map(abs, terms))
                    if not s:
                        center = exact
                    closed = qgaussian.q_log_likelihood(model, theta + s * h, samples)
                    parabola = center + s * h * grad + 0.5 * (s * h) ** 2 * curv
                    yield abs(closed - exact) / size
                    yield abs(parabola - exact) / size
    yield "likelihood_parabola", 1e-12, parabolas()

    def quadratic_gaps():
        grid = np.linspace(-0.3, 0.3, 61)
        h = grid[1] - grid[0]
        for q in (0.5, 1.0, 1.3, 1.7, 2.0):
            model = qgaussian.QGaussianModel.from_beta(q, 1.0)
            lnq = np.asarray([q_log(q, qgaussian.q_gaussian_pdf(model, e))
                              for e in grid])
            second = (lnq[2:] - 2.0 * lnq[1:-1] + lnq[:-2]) / (h * h)
            mid = float(np.median(second))
            yield float(np.max(np.abs(second - mid) / abs(mid)))
    yield "lnq_density_quadratic", 1e-6, quadratic_gaps()

    def residuals():
        for q, coeff, offset in ((1.0, -2.0, 0.0), (1.7, -2.0, 0.5),
                                 (0.5, -3.0, 0.2), (2.0, -1.0, -0.3)):
            model = qgaussian.QGaussianModel(q=q, ode_coeff=coeff, log_offset=offset)
            for e in np.linspace(-1.0, 1.0, 41):
                res = _defining_ode_residual(model, float(e))
                budget = 1e-5 * abs(coeff * e) + 1e-8
                yield abs(res) / budget
    yield "defining_ode_residual", 1.0, residuals()

    def rescalings():
        grid = np.linspace(-3.0, 3.0, 201)
        for c in (1.0, 10.0, 100.0):
            table = qgaussian.frequency_rescale(
                qgaussian.FIG3_INDEX, 1.0, q_log(qgaussian.FIG3_INDEX, c), grid)
            rescaled = table.column("f_rescaled")
            reference = table.column("reference")
            yield float(np.max(np.abs(rescaled - reference) / reference))
    yield "frequency_rescaling_invariance", 1e-12, rescalings()

    yield "fig3_qlog_parabola", 1e-9, _qlog_residual(qgaussian.fig3_data(), power=2)


# ---------------------------------------------------------------------------
# canonical-representation suite


def _canonical(rng):
    q, shift = 1.5, 1.0
    xs = rng.uniform(-0.9, 1.1, size=10)

    def split_in_margin(c1):
        # exp_q(c)**(1-q) is the bracket of c, so pulling ``outer`` out
        # leaves the arguments (-x + inner) / bracket(outer)
        c2 = shift - c1
        args = [(inner[:, None] - xs) / q_exp_bracket(q, outer[:, None])
                for outer, inner in ((c1, c2), (c2, c1))]
        return _in_margin(q, c1, c2) & _in_margin(q, *args).all(axis=1)

    (c1,) = _sample_rows(200, lambda k: (rng.uniform(-1.0, 2.0, size=k),),
                         split_in_margin)
    splits = np.array([p for c in c1.tolist()
                       for p in canonical.split_representation(q, xs, c, shift - c)])
    unsplit = canonical.build_distribution(q, xs, shift)
    yield ("split_probability_invariance", 1e-12,
           np.max(np.abs(splits - unsplit.probabilities)))

    # fit log_q(p) = slope * x + intercept to every split's own probabilities
    design = np.column_stack([xs, np.ones_like(xs)])
    (slopes, intercepts), *_ = np.linalg.lstsq(
        design, _q_log_array(q, splits).T, rcond=None)
    form = canonical.canonical_form(unsplit)
    yield "split_canonical_form", 1e-12, (
        np.max(np.abs(slopes - form.slope)) / abs(form.slope),
        np.max(np.abs(intercepts - form.intercept)) / abs(form.intercept))

    def reconstructions():
        def point_sets(k):
            return (rng.integers(2, 12, size=k), rng.uniform(-1.0, 1.0, size=(k, 11)),
                    rng.uniform(-0.5, 1.5, size=k))

        def points_in_margin(count, pts, shift):
            used = np.arange(11) < count[:, None]
            inside = q_exp_bracket(qs[:, None], shift[:, None] - pts) > _BRACKET_MARGIN
            return (~used | inside).all(axis=1)

        qs = np.resize([0.5, 1.0, 1.5, 2.0], 200)
        counts, point_rows, shifts = _sample_rows(200, point_sets, points_in_margin)
        for qi, k, row, shift in zip(qs.tolist(), counts.tolist(),
                                     point_rows.tolist(), shifts.tolist()):
            dist = canonical.build_distribution(qi, row[:k], shift)
            form = canonical.canonical_form(dist)
            for x, p in zip(dist.xs, dist.probabilities):
                yield abs(form.reconstruct(x) - p) / p
    yield "canonical_reconstruction", 1e-10, reconstructions()

    pts = rng.uniform(-1.0, 1.0, size=8)
    base = canonical.build_distribution(1.0, pts, 0.3)
    other = canonical.build_distribution(1.0, pts, 1.7)
    fa = canonical.canonical_form(base)
    fb = canonical.canonical_form(other)
    yield "classical_shift_independence", 1e-12, (
        np.max(np.abs(np.subtract(base.probabilities, other.probabilities))),
        abs(fa.slope - fb.slope), abs(fa.intercept - fb.intercept))

    dist = canonical.build_distribution(2.0, [0.0, 1.0], 0.0)
    form = canonical.canonical_form(dist)
    yield "worked_two_point_model", 1e-14, (
        abs(dist.probabilities[0] - 2.0 / 3.0), abs(dist.probabilities[1] - 1.0 / 3.0),
        abs(form.slope + 1.5), abs(form.intercept + 0.5))


# ---------------------------------------------------------------------------
# registry


# name -> callable(seed) returning the suite's CaseResults; run_suite and
# run_all look an entry up at call time, so a wrapper put here sees every run
_SUITES = {
    "identities": partial(_run_cases, _identities),
    "dynamics": partial(_run_cases, _dynamics),
    "stirling": partial(_run_cases, _stirling),
    "mlp": partial(_run_cases, _mlp),
    "canonical": partial(_run_cases, _canonical),
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
    cases = tuple(replace(case, name=f"{name}/{case.name}")
                  for name, runner in _SUITES.items() for case in runner(seed))
    return SuiteReport(suite="all", seed=int(seed), cases=cases)
