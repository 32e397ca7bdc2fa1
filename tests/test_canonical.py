"""Deformed-exponential distributions and the unique affine log form."""

import math

import mpmath
import numpy as np
import pytest

from qdeform import (
    DiscreteQDistribution,
    DomainViolation,
    NonPositiveArgument,
    RangeOverflow,
    build_distribution,
    canonical_form,
    q_exp,
    q_exp_bracket,
    q_log,
    split_representation,
)

import mp60


class TestBuildDistribution:
    def test_two_point_hand_case(self):
        # exp_2(-x) = 1/(1+x): frequencies (1, 1/2), probabilities (2/3, 1/3)
        dist = build_distribution(2.0, [0.0, 1.0], 0.0)
        assert dist.frequencies == pytest.approx((1.0, 0.5), rel=1e-15)
        assert dist.total == pytest.approx(1.5, rel=1e-15)
        assert dist.probabilities == pytest.approx((2.0 / 3.0, 1.0 / 3.0),
                                                   rel=1e-15)

    def test_classical_shift_cancels(self):
        xs = [0.0, 0.7, 2.1]
        a = build_distribution(1.0, xs, 0.0).probabilities
        b = build_distribution(1.0, xs, 5.0).probabilities
        assert a == pytest.approx(b, rel=1e-13)

    def test_single_point(self):
        dist = build_distribution(1.5, [4.2], -1.0)
        assert dist.probabilities == (1.0,)

    def test_domain_error_names_point(self):
        # q=1.5: bracket 1 - 0.5*(-x + c) fails for -x + c >= 2
        with pytest.raises(DomainViolation) as err:
            build_distribution(1.5, [0.0, -3.0], 0.0)
        assert err.value.index == 1
        assert err.value.constraint == q_exp_bracket(1.5, 3.0)
        assert "x[1]=-3.0" in str(err.value)

    def test_record_derives_its_fields(self):
        xs = [0.0, 0.7, -0.4, 2.1]
        for q in (0.5, 1.0, 1.5, 2.0):
            assert DiscreteQDistribution(q, xs, 0.3) == build_distribution(q, xs, 0.3)
        dist = DiscreteQDistribution(2, np.array([0.0, 1.0]), 0)
        assert (dist.q, dist.xs, dist.shift) == (2.0, (0.0, 1.0), 0.0)
        assert dist.frequencies == pytest.approx((1.0, 0.5), rel=1e-15)

    def test_derived_fields_are_not_inputs(self):
        for derived in ("frequencies", "total", "probabilities"):
            with pytest.raises(TypeError):
                DiscreteQDistribution(1.5, (0.0,), 0.0, **{derived: (1.0,)})

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            DiscreteQDistribution(1.5, [], 0.0)

    @pytest.mark.parametrize("q, x", [(1e10, 1e300), (-1e10, -1e300)])
    def test_argument_term_past_the_largest_double(self, q, x):
        # (1-q)*(-x) passes the largest double where exp_q(-x) is 1 -+ 7e-8
        with mpmath.workdps(60):
            f = mp60.exp_q(q, -x)
            exact = (f / (f + 1), 1 / (f + 1))
        got = build_distribution(q, [x, 0.0], 0.0).probabilities
        assert all(abs(p - e) <= 1e-12 * e for p, e in zip(got, exact))

    def test_frequencies_always_positive(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            q = float(rng.uniform(0.3, 2.5))
            xs = rng.uniform(-0.8, 0.8, size=5)
            try:
                dist = build_distribution(q, xs, float(rng.uniform(-0.5, 1.0)))
            except DomainViolation:
                continue
            assert all(f > 0.0 for f in dist.frequencies)


class TestSplitRepresentation:
    def test_zero_split_reproduces_base(self):
        p_a, p_b = split_representation(2.0, [0.0, 1.0], 0.0, 0.0)
        assert p_a == pytest.approx((2.0 / 3.0, 1.0 / 3.0), rel=1e-14)
        assert p_b == pytest.approx((2.0 / 3.0, 1.0 / 3.0), rel=1e-14)

    def test_different_splits_same_probabilities(self):
        xs = [0.0, 1.0, 2.0]
        first = split_representation(1.5, xs, 0.3, 0.7)
        second = split_representation(1.5, xs, 0.9, 0.1)
        ref = build_distribution(1.5, xs, 1.0).probabilities
        for p in (*first, *second):
            assert p == pytest.approx(ref, rel=1e-12)

    def test_classical_split(self):
        xs = [0.0, 0.5, 1.5]
        ref = build_distribution(1.0, xs, 1.0).probabilities
        for p in split_representation(1.0, xs, 0.25, 0.75):
            assert p == pytest.approx(ref, rel=1e-13)

    def test_huge_index_split_matches_60_digits(self):
        # exp_q(shift1) is 1 + 6e-16, rounded; its power 1-q ~ 1e18 once
        # overflowed, where the pulled-out x-scale is the bracket 8.6e301
        q, c1, c2 = -1.1820939862583954e18, 7.238113294949192e283, -3.2456717940750865e-106
        xs = [1.0397106742315173e276, -7.995976449044797, -4.395464287919659]
        with mpmath.workdps(60):
            freqs = [mp60.exp_q(q, -mpmath.mpf(x) + c1 + c2) for x in xs]
            exact = [f / mpmath.fsum(freqs) for f in freqs]
        for p in split_representation(q, xs, c1, c2):
            assert all(abs(got - e) <= 1e-15 * e for got, e in zip(p, exact))


# a non-finite point or shift once raised q_exp's anonymous
# "argument must be finite, got inf"
@pytest.mark.parametrize("build, args, named", [
    (build_distribution, (1.5, [0.0, math.inf], 0.0), r"x\[1\] must be finite, got inf"),
    (build_distribution, (1.5, [math.nan], 0.0), r"x\[0\] must be finite, got nan"),
    (build_distribution, (1.5, [0.0], math.nan), "shift must be finite, got nan"),
    (split_representation, (1.5, [0.0, 1.0, -math.inf], 0.2, 0.3),
     r"x\[2\] must be finite, got -inf"),
    (split_representation, (1.5, [0.0], math.inf, 0.3), "shift1 must be finite, got inf"),
    (split_representation, (1.0, [0.0], 0.2, math.nan), "shift2 must be finite, got nan"),
])
def test_nonfinite_point_or_shift_is_named(build, args, named):
    with pytest.raises(ValueError, match=f"^{named}$"):
        build(*args)


# finite points whose sum passes the largest double are still points
@pytest.mark.parametrize("q, xs", [
    (1.0, [0.0, 800.0, -3.0, 2.5]),  # e**-800 underflows
    (1.5, [0.0, 1e300, 4.0]),  # (1-q)*(-x) = 5e299: exp_1.5 underflows
    (1e10, [1e300, 0.0, 0.5]),  # (1-q)*(-x) passes the largest double: exp_q is 1 - 7e-8
])
def test_frequencies_read_as_zero_are_q_exp(q, xs):
    # only the points whose loop value reads 0.0 are taken from q_exp again
    assert build_distribution(q, xs, 0.0).frequencies == tuple(q_exp(q, -x) for x in xs)


def test_points_summing_past_the_largest_double_are_finite():
    dist = build_distribution(1.0, [1e308, 1e308, 0.0], 0.0)
    assert dist.probabilities == (0.0, 0.0, 1.0)


class TestFrequencyErrors:
    """The first failing point decides the error, as a loop over q_exp would."""

    def test_domain_error_of_the_split_names_the_point(self):
        # as the unsplit form's does: the point, its index and the bracket
        with pytest.raises(DomainViolation) as split:
            split_representation(1.5, [0.0, -3.0], 0.0, 0.0)
        with pytest.raises(DomainViolation) as unsplit:
            build_distribution(1.5, [0.0, -3.0], 0.0)
        assert split.value.index == unsplit.value.index == 1
        assert split.value.constraint == unsplit.value.constraint == -0.5
        assert str(split.value) == str(unsplit.value) == (
            "frequency argument for x[1]=-3.0 (element 1): constraint value -0.5 <= 0")

    def test_first_failing_point_wins(self):
        # at q = 0.5, x = 3 leaves the domain and exp_q(1e200) overflows
        with pytest.raises(DomainViolation) as err:
            build_distribution(0.5, [0.0, 3.0, -1e200], 0.0)
        assert err.value.index == 1
        with pytest.raises(RangeOverflow, match=r"^exp_q at q=0.5 overflows"):
            build_distribution(0.5, [0.0, -1e200, 3.0], 0.0)

    def test_argument_past_minus_inf_is_an_overflow_not_a_zero(self):
        # exp_2(-inf) would be 0; the largest point's argument is the first to pass
        with pytest.raises(RangeOverflow, match=r"frequency argument .*\(x\[1\]=1e\+308,"):
            build_distribution(2.0, [0.0, 1e308], -1e308)

    def test_frequency_past_the_largest_double_names_its_argument(self):
        # exp_0.5(x) = (1 + x/2)**2 overflows from a finite argument
        named = r"^exp_q at q=0.5 overflows a double \(x=1e\+200\)"
        with pytest.raises(RangeOverflow, match=named):
            split_representation(0.5, [0.0, -1e200], 0.0, 0.0)

    @pytest.mark.parametrize("q", [0.5, 1.0, 1.5])
    def test_frequencies_are_q_exp_of_the_argument(self, q):
        xs = [0.0, 0.7, -0.4, 2.1, 0.05]
        dist = build_distribution(q, xs, 0.3)
        assert dist.frequencies == tuple(q_exp(q, -x + 0.3) for x in xs)
        for pair, (outer, inner) in zip(split_representation(q, xs, 0.1, 0.2),
                                        ((0.1, 0.2), (0.2, 0.1))):
            scale = q_exp_bracket(q, outer)  # exp_q(outer)**(1-q)
            values = [q_exp(q, (-x + inner) / scale) for x in xs]
            assert pair == tuple(v / math.fsum(values) for v in values)


def _q_exp_forms(q, xs, pulled_out):
    """For each (outer, inner) shift pair, exp_q((-x + inner) / bracket)
    through q_exp over their fsum, the bracket 1 + (1-q)*outer; or the
    error class of the first that fails, as a loop over the points gives."""
    forms = []
    for outer, inner in pulled_out:
        if not 0.0 < (bracket := q_exp_bracket(q, outer)) < math.inf:
            return DomainViolation if bracket <= 0.0 else RangeOverflow
        values = []
        for x in xs:
            if not math.isfinite(argument := (-x + inner) / bracket):
                return RangeOverflow
            try:
                values.append(q_exp(q, argument))
            except (DomainViolation, RangeOverflow) as err:
                return type(err)
        try:
            total = math.fsum(values)
        except OverflowError:
            return RangeOverflow
        if not total > 0.0:
            return NonPositiveArgument
        forms.append([v / total for v in values])
    return forms


def _agrees(call, expected) -> bool:
    """call() gives the probability vectors ``expected`` within 1e-12
    relative, or raises its error class."""
    try:
        got = call()
    except (DomainViolation, NonPositiveArgument, RangeOverflow) as err:
        return type(err) is expected
    return not isinstance(expected, type) and all(
        abs(g - e) <= 1e-12 * e for p, r in zip(got, expected) for g, e in zip(p, r))


def test_two_points_normalize_q_exp_over_the_double_range(wide_draws):
    # where (1-q)*x passes the largest double, q_exp still decides exp_q(-x)
    failed = [(q, x, c) for q, x, c in wide_draws if not _agrees(
        lambda: [build_distribution(q, [x, 0.0], 0.0).probabilities],
        _q_exp_forms(q, [x, 0.0], [(0.0, 0.0)])) or not _agrees(
        lambda: split_representation(q, [x, 0.0], c, 0.0),
        _q_exp_forms(q, [x, 0.0], [(c, 0.0), (0.0, c)]))]
    assert (len(failed), failed[:3]) == (0, [])


class TestCanonicalForm:
    def test_two_point_hand_case(self):
        # n = 3/2: slope -3/2, intercept -(log_0(3/2)) = -1/2, and the
        # affine form reproduces log_2 of both probabilities exactly
        dist = build_distribution(2.0, [0.0, 1.0], 0.0)
        form = canonical_form(dist)
        assert form.slope == pytest.approx(-1.5, abs=1e-14)
        assert form.intercept == pytest.approx(-0.5, abs=1e-14)
        assert q_log(2.0, dist.probabilities[0]) == pytest.approx(-0.5, abs=1e-14)
        assert q_log(2.0, dist.probabilities[1]) == pytest.approx(-2.0, abs=1e-14)

    def test_classical_softmax_form(self):
        xs = [0.0, 1.0, 3.0]
        dist = build_distribution(1.0, xs, 0.8)
        form = canonical_form(dist)
        assert form.slope == -1.0
        assert form.intercept == pytest.approx(0.8 - math.log(dist.total),
                                               rel=1e-13)

    def test_affine_form_matches_direct_qlog(self):
        # the printed closed form must agree with log_q(p_i) computed
        # directly, not just reproduce p_i through exp_q
        rng = np.random.default_rng(41)
        for q in (0.5, 1.3, 1.5, 2.0):
            # keep -x + 0.5 inside every index's domain (needs < 1 at q = 2)
            xs = rng.uniform(-0.45, 0.8, size=6)
            dist = build_distribution(q, xs, 0.5)
            form = canonical_form(dist)
            for x, p in zip(dist.xs, dist.probabilities):
                assert form.slope * x + form.intercept == pytest.approx(
                    q_log(q, p), abs=1e-12)

    def test_reconstruction(self):
        rng = np.random.default_rng(43)
        for q in (0.5, 1.0, 1.5, 2.0):
            xs = rng.uniform(-0.55, 0.9, size=8)
            dist = build_distribution(q, xs, 0.4)
            form = canonical_form(dist)
            for x, p in zip(dist.xs, dist.probabilities):
                assert form.reconstruct(x) == pytest.approx(p, rel=1e-10)

