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

from .core import _check_positive, check_index, q_exp, q_log
from .errors import DomainViolation, RangeOverflow

__all__ = [
    "DiscreteQDistribution",
    "CanonicalQLogForm",
    "build_distribution",
    "split_representation",
    "canonical_form",
]


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
    :class:`OverflowError` naming q and the shift when the frequencies sum
    past the largest double.
    """
    return DiscreteQDistribution(q, xs, shift)


def split_representation(q: float, xs, shift1: float, shift2: float):
    """The two rescaled-argument probability vectors of a split shift.

    Both pull one sub-shift out of exp_q(-x + c1 + c2) and leave the other
    inside the rescaled argument; both normalize to the same probabilities
    as the unsplit form.  Raises :class:`OverflowError` naming q and both
    shifts when the frequencies sum past the largest double.
    """
    q = check_index(q)
    points = [float(x) for x in xs]
    if not points:
        raise ValueError("xs must be non-empty")

    def pulled_out(outer: float, inner: float):
        arg_scale = q_exp(q, outer) ** (1.0 - q)
        values = [q_exp(q, (-x + inner) / arg_scale) for x in points]
        # as in DiscreteQDistribution: all 0, or a sum past the largest double
        try:
            total = _check_positive("total", math.fsum(values))
        except OverflowError:
            raise RangeOverflow("frequency total", q,
                                f"shift1={shift1!r}, shift2={shift2!r}") from None
        return tuple(v / total for v in values)

    return pulled_out(shift1, shift2), pulled_out(shift2, shift1)


def canonical_form(dist: DiscreteQDistribution) -> CanonicalQLogForm:
    """The unique affine deformed-log form of a distribution.

    slope = -n**(q-1) and intercept = n**(q-1)*shift - log_{2-q}(n) depend
    only on the total frequency and the total shift, never on how the shift
    might be split; log_q(p_i) = slope*x_i + intercept reproduces every
    probability.
    """
    q = dist.q
    n = dist.total
    n_pow = n ** (q - 1.0)
    return CanonicalQLogForm(q=q, slope=-n_pow,
                             intercept=n_pow * dist.shift - q_log(2.0 - q, n))

