"""Distributions built from deformed exponentials and their one unique
deformed-log representation.

A frequency model n_i = exp_q(-x_i + c) normalizes to

    p_i = exp_q(-x_i + c) / sum_j exp_q(-x_j + c),

but for q != 1 that surface form is massively non-unique: every split
c = c1 + c2 yields another valid parameterization

    p_i = exp_q((-x_i + c2) / exp_q(c1)**(1-q)) / (same sum)

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
from .core import _check_positive, check_index, q_exp, q_log
from .errors import DomainViolation, NonPositiveArgument, RangeOverflow

__all__ = _EXPORTS["canonical"]


@dataclass(frozen=True)
class DiscreteQDistribution:
    """Data points, their deformed-exponential frequencies and probabilities.

    Built from (q, xs, shift), the rest derived: frequencies exp_q(-x_i +
    shift) are positive reals (the deformed exponential is generically
    non-integer), ``total`` is their compensated sum and the probabilities
    are frequencies/total.
    """

    q: float
    xs: tuple
    shift: float
    frequencies: tuple = field(init=False)
    total: float = field(init=False)
    probabilities: tuple = field(init=False)

    def __post_init__(self):
        q = check_index(self.q)
        shift = float(self.shift)
        points = tuple(float(x) for x in self.xs)
        if not points:
            raise ValueError("xs must be non-empty")
        freqs = []
        for i, x in enumerate(points):
            try:
                freqs.append(q_exp(q, -x + shift))
            except DomainViolation as err:
                raise DomainViolation(f"frequency argument for x[{i}]={x!r}",
                                      err.constraint, index=i) from err
            except ValueError:  # -x + shift is not finite
                if not (math.isfinite(x) and math.isfinite(shift)):
                    raise
                raise RangeOverflow("frequency argument", q,
                                    f"x[{i}]={x!r}, shift={shift!r}") from None
        # the frequencies may all underflow to 0, or sum past the largest double
        try:
            total = _check_positive("total", math.fsum(freqs))
        except OverflowError:
            raise RangeOverflow("frequency total", q, f"shift={shift!r}") from None
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "xs", points)
        object.__setattr__(self, "shift", shift)
        object.__setattr__(self, "frequencies", tuple(freqs))
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "probabilities", tuple(f / total for f in freqs))


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
    frequencies sum (or -x_i + shift) passes the largest double.
    """
    return DiscreteQDistribution(q, xs, shift)


def split_representation(q: float, xs, shift1: float, shift2: float):
    """The two rescaled-argument probability vectors of a split shift.

    Both pull one sub-shift out of exp_q(-x + c1 + c2) and leave the other
    inside the rescaled argument; both normalize to the same probabilities
    as the unsplit form.  A rescaled argument or frequency sum past the
    largest double raises :class:`OverflowError`, and exp_q of a pulled-out
    shift underflowed to 0 :class:`NonPositiveArgument`, naming q and both.
    """
    q = check_index(q)
    points = [float(x) for x in xs]
    if not points:
        raise ValueError("xs must be non-empty")

    def shifts():
        return f"shift1={shift1!r}, shift2={shift2!r}"

    def pulled_out(outer: float, inner: float, name: str):
        y_scale = q_exp(q, outer)
        if y_scale == 0.0:  # underflowed: no scale to pull out
            raise NonPositiveArgument(f"exp_q({name}) at q={q!r} ({shifts()})", y_scale)
        arg_scale = y_scale ** (1.0 - q)
        try:
            values = [q_exp(q, (-x + inner) / arg_scale) for x in points]
        except ValueError as err:  # a domain error, or a rescaled argument not finite
            if isinstance(err, DomainViolation) or not all(
                    map(math.isfinite, (*points, shift1, shift2))):
                raise
            raise RangeOverflow("frequency argument", q, shifts()) from None
        # as in DiscreteQDistribution: all 0, or a sum past the largest double
        try:
            total = _check_positive("total", math.fsum(values))
        except OverflowError:
            raise RangeOverflow("frequency total", q, shifts()) from None
        return tuple(v / total for v in values)

    return pulled_out(shift1, shift2, "shift1"), pulled_out(shift2, shift1, "shift2")


def canonical_form(dist: DiscreteQDistribution) -> CanonicalQLogForm:
    """The unique affine deformed-log form of a distribution.

    slope = -n**(q-1) and intercept = n**(q-1)*shift - log_{2-q}(n) depend
    only on the total frequency and the total shift, never on how the shift
    might be split; log_q(p_i) = slope*x_i + intercept reproduces every
    probability.  A result past the largest double raises
    :class:`OverflowError` naming q, the total and the shift."""
    q = dist.q
    n = dist.total
    try:
        n_pow = n ** (q - 1.0)
        intercept = n_pow * dist.shift - q_log(2.0 - q, n)
        if math.isfinite(intercept):
            return CanonicalQLogForm(q=q, slope=-n_pow, intercept=intercept)
    except OverflowError:
        pass
    raise RangeOverflow("canonical_form", q, f"total={n!r}, shift={dist.shift!r}")

