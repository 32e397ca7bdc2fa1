"""Deformed product/ratio, its fold, and the per-step scale drift of summed shifts.

The deformed product is the operation under which deformed exponentials
factor over plain sums:

    x (x)_q y = (x**(1-q) + y**(1-q) - 1) ** (1/(1-q)),
    exp_q(a + b) = exp_q(a) (x)_q exp_q(b).

It is defined only for x, y > 0 with a strictly positive bracket
x**(1-q) + y**(1-q) - 1, and fails fast with the bracket value rather than
guessing a recovery.  In the q-log representation it is addition,
log_q(x (x)_q y) = log_q x + log_q y, so a fold is exp_q(sum_i log_q f_i):
one checked pass, one ``fsum`` and one q-exp; the running sum of the lifts
is the left fold's step bracket less 1, which names the failing step.

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
from .core import (_check_all, _check_positive, _drop, _finite_or_overflow, _index_error, _lift,
                   check_index, q_log)
from .errors import DomainViolation, NonPositiveArgument, RangeOverflow

__all__ = _EXPORTS["algebra"]

_LN2 = math.log(2.0)


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
        # the bracket 1 + (1-q) * (0, x_1, x_1 + x_2, ...) in place: add.accumulate
        # adds in sequence, so the sums are the running sums (up to a zero's sign)
        w = np.zeros(xs.size)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            np.add.accumulate(xs[:-1], out=w[1:])
            w *= 1.0 - q
            w += 1.0
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
    return _finite_or_overflow("q_product_bracket", q, lambda: f"x={x!r}, y={y!r}",
                               lambda: 1.0 + (_lift(q, x) + _lift(q, y)))


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
    """Left fold of :func:`q_product` in closed form: exp_q of the ``fsum``
    of the lifts f**(1-q) - 1 (2**e exp of the mantissas' log sum at q = 1).

    Errors come in loop order: a factor that is not positive, then the first
    step i whose running bracket 1 + sum_{j<=i} (f_j**(1-q) - 1) is not
    positive, with index i (the last index if only the ``fsum`` total
    fails).  A lift or product past the largest double raises
    :class:`OverflowError`; one factor returns itself.  Relative error:
    about 2**-53 (|ln P| + sum_i f_i**(1-q) |ln f_i| / (1 + S)) for the
    product P with bracket 1 + S, as for the left fold; at q = 1 a few ulps
    per factor.
    """
    q = check_index(q)
    factors = list(factors)
    if len(factors) < 2:
        if not factors:
            raise ValueError("factors must be non-empty")
        return _check_positive("factors[0]", factors[0])

    def fold():
        lifts, s, exponent = [], 0.0, 0
        for i, f in enumerate(factors):
            if not 0.0 < (f := float(f)) < math.inf:
                raise NonPositiveArgument(f"factors[{i}]", f)
            if q == 1.0:  # ln m for f = m 2**e, and the summed binary exponent
                m, e = math.frexp(f)
                lifts.append(math.log(m))
                exponent += e
                continue
            lifts.append(d := _lift(q, f))
            if (s := s + d) <= -1.0 and i:
                raise DomainViolation("q_product fold bracket", 1.0 + s, index=i)
        total = math.fsum(lifts)
        if q == 1.0:  # the sum of logs moved within ln(2)/2 of 0 first
            k = round(total / _LN2)
            return math.ldexp(math.exp(total - k * _LN2), exponent + k)
        if total <= -1.0:
            raise DomainViolation("q_product fold bracket", 1.0 + total, index=len(lifts) - 1)
        return _drop(q, total)

    return _finite_or_overflow("q_product_fold", q, lambda: f"{len(factors)} factors", fold)


def q_log_sum(q: float, factors) -> float:
    """The ``fsum`` of the factors' :func:`~qdeform.core.q_log` values, each on its range
    policy; no bracket is formed, so none fails.  A factor that is not positive raises
    :class:`NonPositiveArgument` as ``factors[i]``, a term past the largest double
    :class:`OverflowError` naming ``factors[i]``, and a sum past it the factor count."""
    q = check_index(q)
    terms = []
    for i, f in enumerate(factors):
        try:
            terms.append(q_log(q, f))
        except NonPositiveArgument as err:
            raise NonPositiveArgument(f"factors[{i}]", err.value) from None
        except RangeOverflow:
            raise RangeOverflow("q_log_sum", q, f"factors[{i}]") from None
    return _finite_or_overflow("q_log_sum", q, lambda: f"{len(terms)} factors",
                               lambda: math.fsum(terms))
