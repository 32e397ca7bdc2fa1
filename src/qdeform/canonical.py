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
from dataclasses import dataclass

import numpy as np

from .core import check_index, q_exp, q_exp_bracket, q_log
from .errors import DomainViolation, NonPositiveArgument

__all__ = [
    "DiscreteQDistribution",
    "CanonicalQLogForm",
    "UniquenessReport",
    "build_distribution",
    "split_representation",
    "canonical_form",
    "verify_uniqueness",
]


@dataclass(frozen=True)
class DiscreteQDistribution:
    """Data points, their deformed-exponential frequencies and probabilities.

    Frequencies are positive reals (the deformed exponential is generically
    non-integer); ``total`` is their compensated sum and the probabilities
    are frequencies/total.
    """

    q: float
    xs: tuple
    shift: float
    frequencies: tuple
    total: float
    probabilities: tuple

    def __post_init__(self):
        if not (len(self.xs) == len(self.frequencies) == len(self.probabilities)):
            raise ValueError("xs, frequencies and probabilities must align")
        if any(f <= 0.0 for f in self.frequencies):
            raise ValueError("frequencies must be strictly positive")
        if abs(math.fsum(self.probabilities) - 1.0) > 1e-12:
            raise ValueError("probabilities must sum to 1")


@dataclass(frozen=True)
class CanonicalQLogForm:
    """The affine deformed-log representation log_q(p_i) = slope*x_i + intercept."""

    q: float
    slope: float
    intercept: float

    def reconstruct(self, x: float) -> float:
        """Probability recovered from the affine form: exp_q(slope*x + intercept)."""
        return q_exp(self.q, self.slope * float(x) + self.intercept)


@dataclass(frozen=True)
class UniquenessReport:
    """Outcome of sampling shift splits of one distribution."""

    q: float
    shift: float
    n_splits: int
    rejected: int
    max_probability_deviation: float
    distinct_parameterizations: int
    canonical: CanonicalQLogForm
    canonical_bit_stable: bool


def build_distribution(q: float, xs, shift: float) -> DiscreteQDistribution:
    """Frequencies exp_q(-x_i + shift), their total, and probabilities.

    Raises :class:`DomainViolation` naming the first data point whose
    argument leaves the deformed-exponential domain.
    """
    q = check_index(q)
    shift = float(shift)
    points = [float(x) for x in xs]
    if not points:
        raise ValueError("xs must be non-empty")
    freqs = []
    for i, x in enumerate(points):
        u = -x + shift
        w = q_exp_bracket(q, u)
        if w <= 0.0:
            raise DomainViolation(f"frequency argument for x[{i}]={x!r}", w, index=i)
        freqs.append(q_exp(q, u))
    total = math.fsum(freqs)
    if not total > 0.0:  # every frequency underflowed to 0
        raise NonPositiveArgument("total", total)
    probs = tuple(f / total for f in freqs)
    return DiscreteQDistribution(q=q, xs=tuple(points), shift=shift,
                                 frequencies=tuple(freqs), total=total,
                                 probabilities=probs)


def split_representation(q: float, xs, shift1: float, shift2: float):
    """The two rescaled-argument probability vectors of a split shift.

    Both pull one sub-shift out of exp_q(-x + c1 + c2) and leave the other
    inside the rescaled argument; both normalize to the same probabilities
    as the unsplit form.
    """
    q = check_index(q)
    points = [float(x) for x in xs]
    if not points:
        raise ValueError("xs must be non-empty")

    def pulled_out(outer: float, inner: float):
        arg_scale = q_exp(q, outer) ** (1.0 - q)
        values = [q_exp(q, (-x + inner) / arg_scale) for x in points]
        total = math.fsum(values)
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
    if not (n > 0.0):
        raise NonPositiveArgument("total", n)
    n_pow = n ** (q - 1.0)
    return CanonicalQLogForm(q=q, slope=-n_pow,
                             intercept=n_pow * dist.shift - q_log(2.0 - q, n))


def _split_interval(q: float, shift: float):
    # Both sub-shifts must keep their own exp_q bracket positive.
    if q == 1.0:
        return shift - 5.0, shift + 5.0
    margin = 1e-9
    if q > 1.0:
        upper = (1.0 - margin) / (q - 1.0)
        lo, hi = shift - upper, upper
    else:
        lower = (margin - 1.0) / (1.0 - q)
        lo, hi = lower, shift - lower
    if not lo < hi:
        raise DomainViolation("no feasible shift split exists",
                              q_exp_bracket(q, shift))
    pad = 1e-3 * (hi - lo)
    return lo + pad, hi - pad


def verify_uniqueness(q: float, xs, shift: float, n_splits: int = 100,
                      seed: int = 0) -> UniquenessReport:
    """Sample random splits shift = c1 + c2 and compare representations.

    Each feasible split produces two surface parameterizations (distinct
    argument rescalings for q != 1) whose probability vectors are compared
    componentwise against the unsplit distribution; the canonical affine
    form is derived from the total shift alone, so it is bit-identical
    across splits by construction -- that invariance is exactly what makes
    it canonical.  At q = 1 the argument rescaling degenerates and the
    sub-shift cancels under normalization, so every split presents the same
    single parameterization.

    Splits are drawn uniformly from the feasible interval for c1
    (:func:`DomainViolation` on individual draws is recorded, not fatal).
    """
    q = check_index(q)
    shift = float(shift)
    reference = build_distribution(q, xs, shift)
    ref_p = np.asarray(reference.probabilities)
    canonical = canonical_form(reference)

    rng = np.random.default_rng(seed)
    lo, hi = _split_interval(q, shift)
    max_dev = 0.0
    rejected = 0
    parameterizations = set()
    canonical_values = set()
    for _ in range(int(n_splits)):
        c1 = float(rng.uniform(lo, hi))
        c2 = shift - c1
        try:
            p_a, p_b = split_representation(q, xs, c1, c2)
        except DomainViolation:
            rejected += 1
            continue
        dev = max(np.max(np.abs(np.asarray(p_a) - ref_p)),
                  np.max(np.abs(np.asarray(p_b) - ref_p)))
        max_dev = max(max_dev, float(dev))
        if q == 1.0:
            # x-axis untouched and the sub-shift cancels in the
            # normalization: one parameterization no matter the split.
            parameterizations.add((1.0,))
        else:
            parameterizations.add((q_exp(q, c1) ** (1.0 - q), c2))
        per_split_canonical = canonical_form(build_distribution(q, xs, shift))
        canonical_values.add((per_split_canonical.slope, per_split_canonical.intercept))
    return UniquenessReport(
        q=q,
        shift=shift,
        n_splits=int(n_splits),
        rejected=rejected,
        max_probability_deviation=max_dev,
        distinct_parameterizations=len(parameterizations),
        canonical=canonical,
        canonical_bit_stable=(canonical_values ==
                              {(canonical.slope, canonical.intercept)}),
    )
