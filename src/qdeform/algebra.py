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
from dataclasses import dataclass, field

from . import _EXPORTS
from .core import (_check_all, _check_positive, _drop, _index_error, _lift, check_index,
                   q_exp_bracket, q_log)
from .errors import DomainViolation, NonPositiveArgument, RangeOverflow

__all__ = _EXPORTS["algebra"]


@dataclass(frozen=True)
class ObservationSequence:
    """Same-scale shifts x_1..x_n and, derived from them at construction,
    the drifted readings x'_t = x_t / (1 + (1-q) * sum_{i<t} x_i).  The
    first step whose partial sum or reading passes the largest double raises
    :class:`~qdeform.errors.RangeOverflow`, or whose scale factor is not
    positive :class:`DomainViolation`; a non-finite shift :class:`ValueError`."""

    q: float
    shifts: tuple
    observed: tuple = field(init=False)

    def __post_init__(self):
        import numpy as np  # here, so that the scalar primitives start without it

        q = check_index(self.q)
        xs = np.fromiter(self.shifts, dtype=float)
        if not xs.size:
            raise ValueError("shifts must be non-empty")
        # the cumulative sum of 0, x_1, ..., x_{n-1}: float64 add.accumulate
        # (np.cumsum) adds in sequence, so it is the running sum bit for bit
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            w = q_exp_bracket(q, np.add.accumulate(np.concatenate(([0.0], xs[:-1]))))
            observed = xs / w

        def failure(t):
            if not math.isfinite(xs[t]):
                return ValueError(f"shifts[{t}] must be finite, got {float(xs[t])!r}")
            if not math.isfinite(w[t]):
                return RangeOverflow("partial sum of shifts", q, f"step {t}")
            if not w[t] > 0.0:
                return DomainViolation("partial-sum scale factor", float(w[t]), index=t)
            return RangeOverflow("drifted reading", q,
                                 f"step {t}: shifts[{t}]={float(xs[t])!r}")

        # the first step with a non-finite shift, partial sum, scale factor or
        # reading, or a factor that is not positive
        _check_all(np.isfinite(observed) & np.isfinite(w) & (w > 0.0), failure)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "shifts", tuple(xs.tolist()))
        object.__setattr__(self, "observed", tuple(observed.tolist()))


def _combine(name: str, bracket: str, q: float, x: float, y: float,
             sign: float) -> float:
    """Checked exp_q(log_q x + sign * log_q y): x * y**sign at q = 1, else
    _drop(q, d) for the bracket less 1, d = _lift(q, x) + sign * _lift(q, y),
    which does not cancel near q = 1; |1-q| >= 2**-53, so the exponent of
    _drop is finite and exp raises on overflow."""
    if not math.isfinite(q := float(q)):
        raise _index_error(q)
    if not 0.0 < (x := float(x)) < math.inf:
        raise NonPositiveArgument("x", x)
    if not 0.0 < (y := float(y)) < math.inf:
        raise NonPositiveArgument("y", y)
    try:
        if q == 1.0:
            value = x * y if sign > 0.0 else x / y
            if value < math.inf:
                return value
        else:
            d = _lift(q, x) + sign * _lift(q, y)
            if math.isfinite(d):
                if d <= -1.0:
                    raise DomainViolation(bracket, 1.0 + d)
                return _drop(q, d)
    except OverflowError:
        pass
    raise RangeOverflow(name, q, f"x={x!r}, y={y!r}")


def q_product_bracket(q: float, x: float, y: float) -> float:
    """Domain certificate x**(1-q) + y**(1-q) - 1 of the deformed product:
    for x, y > 0, ``q_product(q, x, y)`` is defined exactly where it is > 0.
    Bad arguments and overflow are reported as by :func:`q_product`."""
    q = check_index(q)
    x, y = _check_positive("x", x), _check_positive("y", y)
    try:
        d = _lift(q, x) + _lift(q, y)
        if math.isfinite(d):
            return 1.0 + d
    except OverflowError:
        pass
    raise RangeOverflow("q_product_bracket", q, f"x={x!r}, y={y!r}")


def q_product(q: float, x: float, y: float) -> float:
    """Deformed product; commutative and associative with identity 1.

    Evaluated through the kernel pair of :mod:`qdeform.core` as
    (1 + d)**(1/(1-q)) with d = (x**(1-q) - 1) + (y**(1-q) - 1), which
    avoids the cancellation of the naive bracket near q = 1.  A term or
    result past the largest double raises :class:`OverflowError` naming q,
    x and y.
    """
    return _combine("q_product", "q_product bracket x^(1-q) + y^(1-q) - 1",
                    q, x, y, 1.0)


def q_ratio(q: float, x: float, y: float) -> float:
    """Inverse of :func:`q_product`: q_ratio(q_product(x, y), y) == x.
    Overflow is reported as by :func:`q_product`."""
    return _combine("q_ratio", "q_ratio bracket x^(1-q) - y^(1-q) + 1",
                    q, x, y, -1.0)


def scale_drift_expand(q: float, shifts) -> ObservationSequence:
    """Drifted per-step readings of same-scale shifts.

    The plain product of exp_q over the returned ``observed`` values equals
    exp_q of the sum of ``shifts`` (to ~1e-10 relative in double precision).
    Raises :class:`DomainViolation` naming the first step whose partial-sum
    scale factor is not positive, and the other errors of
    :class:`ObservationSequence`.
    """
    return ObservationSequence(q, shifts)


def q_product_fold(q: float, factors) -> float:
    """Left fold of :func:`q_product` over positive factors.

    Equals exp_q of the sum of the factors' deformed logarithms; the
    left-to-right order is fixed so a failing step is reproducible, and a
    domain error reports the index of the factor that broke the fold.  Each
    factor is checked once, as its step comes, so errors come in loop order.
    """
    q = check_index(q)
    values = [float(f) for f in factors]
    if not values:
        raise ValueError("factors must be non-empty")
    acc = _check_positive("factors[0]", values[0])
    for i in range(1, len(values)):
        f = _check_positive(f"factors[{i}]", values[i])
        if not acc > 0.0:  # the running value underflowed to 0
            raise NonPositiveArgument("x", acc)
        try:  # _combine's q-product step
            if q == 1.0:
                if (value := acc * f) < math.inf:
                    acc = value
                    continue
            elif math.isfinite(d := _lift(q, acc) + _lift(q, f)):
                if d <= -1.0:
                    raise DomainViolation("q_product fold bracket", 1.0 + d, index=i)
                acc = _drop(q, d)
                continue
        except OverflowError:
            pass
        raise RangeOverflow("q_product", q, f"x={acc!r}, y={f!r}")
    return acc


def q_log_sum(q: float, factors) -> float:
    """Sum of deformed logarithms of the factors (the fold's linearized form).

    A sum past the largest double raises :class:`OverflowError` naming q
    and the number of factors.
    """
    q = check_index(q)
    terms = [q_log(q, f) for f in factors]
    try:
        return math.fsum(terms)
    except OverflowError:  # finite terms whose sum passes the largest double
        raise RangeOverflow("q_log_sum", q, f"{len(terms)} factors") from None
