"""Deformed product/ratio and the per-step scale drift of summed shifts.

The deformed product is the operation under which deformed exponentials
factor over plain sums:

    x (x)_q y = (x**(1-q) + y**(1-q) - 1) ** (1/(1-q)),
    exp_q(a + b) = exp_q(a) (x)_q exp_q(b).

It is defined only for x, y > 0 with a strictly positive bracket
x**(1-q) + y**(1-q) - 1; operations here fail fast with the bracket value
(and the element index for stepwise folds) rather than guessing a recovery.

Ordinary multiplication of deformed exponentials instead picks up a running
rescaling: exp_q(x_1 + ... + x_n) equals the plain product of exp_q of the
*drifted* values

    x'_t = x_t / (1 + (1-q) * sum_{i<t} x_i),

which is what a step-by-step observer reads off when each increment is
reported in the scale set by the history so far.  ``scale_drift_expand``
materializes that sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import check_index, q_exp, q_exp_bracket, q_log
from .errors import DomainViolation, NonPositiveArgument

__all__ = [
    "ObservationSequence",
    "q_product",
    "q_product_bracket",
    "q_ratio",
    "q_exp_law_check",
    "scale_drift_expand",
    "q_product_fold",
]


@dataclass(frozen=True)
class ObservationSequence:
    """Same-scale shifts x_1..x_n paired with their drifted readings x'_1..x'_n."""

    q: float
    shifts: tuple
    observed: tuple

    def __post_init__(self):
        if len(self.shifts) != len(self.observed):
            raise ValueError("shifts and observed must have the same length")
        if not self.shifts:
            raise ValueError("an observation sequence needs at least one step")
        if self.observed[0] != self.shifts[0]:
            raise ValueError("the first observation carries the reference scale "
                             "and must equal the first shift")
        partial = 0.0
        for t, x in enumerate(self.shifts):
            w = q_exp_bracket(self.q, partial)
            if w <= 0.0:
                raise DomainViolation("partial-sum scale factor", w, index=t)
            partial += x


def _product_excess(q: float, x: float, y: float) -> float:
    # the bracket less 1, which q_product takes log1p of so as not to cancel
    omq = 1.0 - q
    return math.expm1(omq * math.log(x)) + math.expm1(omq * math.log(y))


def q_product_bracket(q: float, x: float, y: float) -> float:
    """Domain certificate x**(1-q) + y**(1-q) - 1 of the deformed product:
    for x, y > 0, ``q_product(q, x, y)`` is defined exactly where it is > 0."""
    return 1.0 + _product_excess(q, x, y)


def q_product(q: float, x: float, y: float) -> float:
    """Deformed product; commutative and associative with identity 1.

    Evaluated as exp(log1p(d)/(1-q)) with d = expm1((1-q) log x) +
    expm1((1-q) log y), which avoids the cancellation of the naive bracket
    near q = 1.
    """
    q = check_index(q)
    x, y = float(x), float(y)
    if not (x > 0.0) or not math.isfinite(x):
        raise NonPositiveArgument("x", x)
    if not (y > 0.0) or not math.isfinite(y):
        raise NonPositiveArgument("y", y)
    if q == 1.0:
        return x * y
    d = _product_excess(q, x, y)
    w = 1.0 + d
    if w <= 0.0:
        raise DomainViolation("q_product bracket x^(1-q) + y^(1-q) - 1", w)
    return math.exp(math.log1p(d) / (1.0 - q))


def q_ratio(q: float, x: float, y: float) -> float:
    """Inverse of :func:`q_product`: q_ratio(q_product(x, y), y) == x."""
    q = check_index(q)
    x, y = float(x), float(y)
    if not (x > 0.0) or not math.isfinite(x):
        raise NonPositiveArgument("x", x)
    if not (y > 0.0) or not math.isfinite(y):
        raise NonPositiveArgument("y", y)
    if q == 1.0:
        return x / y
    omq = 1.0 - q
    d = math.expm1(omq * math.log(x)) - math.expm1(omq * math.log(y))
    w = 1.0 + d
    if w <= 0.0:
        raise DomainViolation("q_ratio bracket x^(1-q) - y^(1-q) + 1", w)
    return math.exp(math.log1p(d) / omq)


def q_exp_law_check(q: float, x1: float, x2: float) -> float:
    """Relative residual of exp_q(x1+x2) = exp_q(x1) (x)_q exp_q(x2)."""
    lhs = q_exp(q, float(x1) + float(x2))
    rhs = q_product(q, q_exp(q, x1), q_exp(q, x2))
    return abs(lhs - rhs) / lhs


def scale_drift_expand(q: float, shifts) -> ObservationSequence:
    """Drifted per-step readings of same-scale shifts.

    The plain product of exp_q over the returned ``observed`` values equals
    exp_q of the sum of ``shifts`` (to ~1e-10 relative in double precision).
    Raises :class:`DomainViolation` naming the first step whose partial-sum
    scale factor is not positive.
    """
    q = check_index(q)
    xs = tuple(float(s) for s in shifts)
    if not xs:
        raise ValueError("shifts must be non-empty")
    observed = []
    partial = 0.0
    for t, x in enumerate(xs):
        w = q_exp_bracket(q, partial)
        if w <= 0.0:
            raise DomainViolation("partial-sum scale factor", w, index=t)
        observed.append(x / w)
        partial += x
    return ObservationSequence(q=q, shifts=xs, observed=tuple(observed))


def q_product_fold(q: float, factors) -> float:
    """Left fold of :func:`q_product` over positive factors.

    Equals exp_q of the sum of the factors' deformed logarithms; the
    left-to-right order is fixed so a failing step is reproducible, and a
    domain error reports the index of the factor that broke the fold.
    """
    q = check_index(q)
    values = [float(f) for f in factors]
    if not values:
        raise ValueError("factors must be non-empty")
    acc = None
    for i, f in enumerate(values):
        if not (f > 0.0) or not math.isfinite(f):
            raise NonPositiveArgument(f"factors[{i}]", f)
        if acc is None:
            acc = f
            continue
        try:
            acc = q_product(q, acc, f)
        except DomainViolation as err:
            raise DomainViolation("q_product fold bracket", err.constraint, index=i) from err
    return acc


def q_log_sum(q: float, factors) -> float:
    """Sum of deformed logarithms of the factors (the fold's linearized form)."""
    q = check_index(q)
    return math.fsum(q_log(q, f) for f in factors)
