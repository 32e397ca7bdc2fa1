"""Distributions built from deformed exponentials and their one unique
deformed-log representation.

A frequency model n_i = exp_q(-x_i + c) normalizes to

    p_i = exp_q(-x_i + c) / sum_j exp_q(-x_j + c),

but for q != 1 that surface form is massively non-unique: every split
c = c1 + c2 yields another valid parameterization

    p_i = exp_q((-x_i + c2) / (1 + (1-q)*c1)) / (same sum)

(and symmetrically with c1 <-> c2), all secretly equal as probability
vectors.  Taking the deformed log collapses them to a single affine form

    log_q(p_i) = slope * x_i + intercept,
    slope     = -n**(q-1),
    intercept = n**(q-1) * c - log_{2-q}(n),

with n the total frequency; the dual-index logarithm is just ``q_log``
called with index 2 - q, so one audited primitive covers both.  At q = 1
everything degenerates to the classical shift-invariant softmax and even c
drops out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import _EXPORTS
from .core import (_check_finite_scalar, _check_positive, _drop, _finite_or_overflow,
                   check_index, q_exp, q_exp_bracket, q_log)
from .errors import DomainViolation, RangeOverflow

__all__ = _EXPORTS["canonical"]


def _points(xs) -> tuple:
    """The data points as a non-empty tuple of finite floats."""
    points = tuple(map(float, xs))
    if not points:
        raise ValueError("xs must be non-empty")
    if not math.isfinite(sum(points)):  # a non-finite point, or a sum past the largest double
        for i, x in enumerate(points):
            _check_finite_scalar(f"x[{i}]", x)
    return points


def _frequencies(q: float, points: tuple, inner: float, scale: float, shifts):
    """Frequencies exp_q((-x + inner) / scale) of finite points, their
    compensated total and the probabilities, for a checked index, a finite
    inner shift and a positive scale (1.0 for the unsplit form).

    One loop through ``_drop`` (``math.exp`` at q = 1), with no check per
    point.  :func:`q_exp` takes each frequency the loop reads as 0.0, or every
    one where it raises or its total is inf; a positive finite loop value is
    ``q_exp``'s.  An error names the first failing point and its index, and
    ``shifts()`` the shift(s) in an overflow.
    """
    c = 1.0 - q
    try:
        if q == 1.0:
            values = [math.exp((-x + inner) / scale) for x in points]
        else:
            values = [_drop(q, c * ((-x + inner) / scale)) for x in points]
        total = math.fsum(values)  # raises past the largest double, unless a value is inf
    except (ValueError, ArithmeticError):
        total = math.inf
    if total == math.inf:
        values = [0.0] * len(points)
    if 0.0 in values:
        for i, x in [(i, x) for i, (x, v) in enumerate(zip(points, values)) if v == 0.0]:
            if not math.isfinite(argument := (-x + inner) / scale):
                raise RangeOverflow("frequency argument", q, f"x[{i}]={x!r}, {shifts()}")
            try:
                values[i] = q_exp(q, argument)
            except DomainViolation as err:
                raise DomainViolation(f"frequency argument for x[{i}]={x!r}",
                                      err.constraint, index=i) from err
        total = _finite_or_overflow("frequency total", q, shifts, lambda: math.fsum(values))
    total = _check_positive("total", total)  # the frequencies may all underflow to 0
    return tuple(values), total, tuple([v / total for v in values])


@dataclass(frozen=True)
class DiscreteQDistribution:
    """Data points, their deformed-exponential frequencies and probabilities.

    Built from (q, xs, shift), the rest derived: frequencies exp_q(-x_i +
    shift) are positive reals (the deformed exponential is generically
    non-integer), ``total`` is their compensated sum and the probabilities
    are frequencies/total.  A non-finite point or shift raises
    :class:`ValueError` naming it.
    """

    q: float
    xs: tuple
    shift: float
    frequencies: tuple = field(init=False)
    total: float = field(init=False)
    probabilities: tuple = field(init=False)

    def __post_init__(self):
        q = check_index(self.q)
        shift = _check_finite_scalar("shift", self.shift)
        points = _points(self.xs)
        freqs, total, probs = _frequencies(q, points, shift, 1.0, lambda: f"shift={shift!r}")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "xs", points)
        object.__setattr__(self, "shift", shift)
        object.__setattr__(self, "frequencies", freqs)
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "probabilities", probs)


@dataclass(frozen=True)
class CanonicalQLogForm:
    """The affine deformed-log representation log_q(p_i) = slope*x_i + intercept."""

    q: float
    slope: float
    intercept: float

    def reconstruct(self, x: float) -> float:
        """Probability recovered from the affine form: exp_q(slope*x + intercept)."""
        return q_exp(self.q, self.slope * float(x) + self.intercept)


def build_distribution(q: float, xs, shift: float) -> DiscreteQDistribution:
    """Frequencies exp_q(-x_i + shift), their total, and probabilities.

    Raises :class:`DomainViolation` naming the first data point whose
    argument leaves the deformed-exponential domain, and
    :class:`OverflowError` naming q and the shift (and the point) when the
    frequencies sum (or -x_i + shift) passes the largest double.  A
    non-finite point or shift raises :class:`ValueError` naming it.
    """
    return DiscreteQDistribution(q, xs, shift)


def split_representation(q: float, xs, shift1: float, shift2: float):
    """The two rescaled-argument probability vectors of a split shift.

    Both pull one sub-shift out of exp_q(-x + c1 + c2) and divide the
    argument left with the other by the pulled-out shift's bracket
    1 + (1-q)*outer; exp_q(outer) cancels from the probabilities, which are
    those of the unsplit form.  A pulled-out shift or the first point
    outside the domain raises :class:`DomainViolation`; that bracket, a
    rescaled argument or a frequency sum past the largest double
    :class:`OverflowError` naming q and both shifts (and the point, for an
    argument); a non-finite point or shift :class:`ValueError` naming it.
    """
    q = check_index(q)
    points = _points(xs)
    shift1, shift2 = _check_finite_scalar("shift1", shift1), _check_finite_scalar("shift2", shift2)

    def shifts():
        return f"shift1={shift1!r}, shift2={shift2!r}"

    def pulled_out(outer: float, inner: float):
        if not (x_scale := q_exp_bracket(q, outer)) > 0.0:
            raise DomainViolation("exp_q argument outside domain", x_scale)
        if x_scale == math.inf:
            raise RangeOverflow("pulled-out bracket 1 + (1-q)*shift", q, shifts())
        return _frequencies(q, points, inner, x_scale, shifts)[2]

    return pulled_out(shift1, shift2), pulled_out(shift2, shift1)


def canonical_form(dist: DiscreteQDistribution) -> CanonicalQLogForm:
    """The unique affine deformed-log form of a distribution.

    slope = -n**(q-1) and intercept = n**(q-1)*shift - log_{2-q}(n) depend
    only on the total frequency and the total shift, never on how the shift
    might be split; log_q(p_i) = slope*x_i + intercept reproduces every
    probability.  A result past the largest double raises
    :class:`OverflowError` naming q, the total and the shift."""
    q, n = dist.q, dist.total
    intercept = _finite_or_overflow(
        "canonical_form", q, lambda: f"total={n!r}, shift={dist.shift!r}",
        lambda: n ** (q - 1.0) * dist.shift - q_log(2.0 - q, n))
    # n**(q-1) raises or is finite, so the slope is finite once the intercept is
    return CanonicalQLogForm(q=q, slope=-n ** (q - 1.0), intercept=intercept)

