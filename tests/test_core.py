"""Unit and property tests for the deformed log/exp pair."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdeform import (
    DomainViolation,
    NonPositiveArgument,
    q_exp,
    q_exp_bracket,
    q_log,
    q_log_of_ratio,
    round_trip_check,
)
from qdeform.core import _q_exp_array, _q_log_array

# 40-digit evaluation of (1 + 0.3)**(-1/0.3)
QEXP_13_MINUS1 = 0.4170506723141460936064


class TestQLog:
    def test_unit_argument_is_zero_for_any_index(self):
        for q in (0.3, 0.5, 1.0, 1.3, 1.7, 2.0, 2.5):
            assert q_log(q, 1.0) == 0.0

    def test_classical_branch(self):
        assert q_log(1.0, math.e) == pytest.approx(1.0, rel=1e-15)

    def test_index_two_halves(self):
        # (2**-1 - 1)/(-1) = 1/2
        assert q_log(2.0, 2.0) == pytest.approx(0.5, rel=1e-15)

    def test_rejects_nonpositive(self):
        with pytest.raises(NonPositiveArgument):
            q_log(1.5, 0.0)
        with pytest.raises(NonPositiveArgument):
            q_log(1.5, -3.0)

    def test_rejects_nonfinite_index(self):
        with pytest.raises(ValueError):
            q_log(float("nan"), 2.0)

    def test_strictly_increasing_on_grid(self):
        ys = np.logspace(-2, 2, 1000)
        for q in (0.3, 0.5, 1.0, 1.3, 1.7, 2.0, 2.5):
            values = [q_log(q, y) for y in ys]
            assert all(b > a for a, b in zip(values, values[1:]))

    def test_stable_near_classical_index(self):
        # the deformed branch must track log y to first order in (1-q)
        for q in (1.0 - 1e-8, 1.0 + 1e-8):
            for y in (0.25, 2.0, 40.0):
                assert q_log(q, y) == pytest.approx(math.log(y), rel=1e-6)


class TestQExp:
    def test_zero_maps_to_one(self):
        for q in (0.5, 1.0, 1.3, 2.2):
            assert q_exp(q, 0.0) == 1.0

    def test_square_case(self):
        assert q_exp(0.5, 6.0) == pytest.approx(16.0, rel=1e-14)

    def test_decay_value(self):
        assert q_exp(1.3, -1.0) == pytest.approx(QEXP_13_MINUS1, rel=1e-14)

    def test_domain_violation_carries_bracket(self):
        with pytest.raises(DomainViolation) as err:
            q_exp(1.3, 4.0)  # bracket 1 - 0.3*4 = -0.2
        assert err.value.constraint == pytest.approx(-0.2)

    def test_cutoff_mode_only_below_one(self):
        assert q_exp(0.5, -3.0, cutoff=True) == 0.0
        with pytest.raises(DomainViolation):
            q_exp(1.5, 3.0, cutoff=True)

    def test_bracket_helper(self):
        assert q_exp_bracket(1.3, 4.0) == pytest.approx(-0.2)
        assert q_exp_bracket(1.0, 123.0) == 1.0


class TestRatioIdentity:
    def test_index_two(self):
        assert q_log_of_ratio(2.0, 4.0, 2.0) == pytest.approx(0.5, rel=1e-14)
        assert q_log_of_ratio(2.0, 4.0, 2.0) == pytest.approx(
            q_log(2.0, 2.0), rel=1e-14)

    def test_classical_quotient_rule(self):
        assert q_log_of_ratio(1.0, 6.0, 2.0) == pytest.approx(
            math.log(3.0), rel=1e-15)

    def test_equal_arguments_vanish(self):
        for x in (0.2, 1.0, 7.5):
            assert q_log_of_ratio(1.5, x, x) == 0.0

    def test_rejects_nonpositive(self):
        with pytest.raises(NonPositiveArgument):
            q_log_of_ratio(1.5, -1.0, 2.0)
        with pytest.raises(NonPositiveArgument):
            q_log_of_ratio(1.5, 1.0, 0.0)


class TestRoundTrip:
    def test_examples(self):
        assert round_trip_check(1.7, 0.0) == 0.0
        assert round_trip_check(0.5, 6.0) < 1e-12
        assert round_trip_check(1.0, 10.0) < 1e-12 * 10.0

    def test_seeded_sweep(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            q = float(rng.uniform(0.2, 2.8))
            x = float(rng.uniform(-3.0, 3.0))
            if q_exp_bracket(q, x) <= 1e-3:
                continue
            assert round_trip_check(q, x) < 1e-12 * max(1.0, abs(x))
            y = float(rng.uniform(0.05, 20.0))
            assert q_exp(q, q_log(q, y)) == pytest.approx(y, rel=1e-12)


@given(q=st.floats(0.2, 2.8), x=st.floats(-3.0, 3.0))
@settings(max_examples=300, deadline=None)
def test_inverse_pair_property(q, x):
    if q_exp_bracket(q, x) <= 1e-3:
        return
    assert round_trip_check(q, x) < 1e-12 * max(1.0, abs(x))


@given(q=st.floats(0.2, 2.8), y=st.floats(0.05, 20.0), x=st.floats(0.05, 20.0))
@settings(max_examples=300, deadline=None)
def test_ratio_identity_property(q, y, x):
    a = q_log_of_ratio(q, y, x)
    b = q_log(q, y / x)
    assert abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))


# The array kernels use numpy's exp/log/expm1/log1p, the scalar ones libm's,
# each within a few ulp.  A relative error in an exponent is amplified by the
# exponent's size: at most ~6 for exp_q's log1p((1-q)x)/(1-q) (bracket kept
# above 1e-2, |x| <= 3) and ~13 for log_q's (1-q)log(y) (y in [1e-3, 1e3]),
# so 1e-14 relative bounds the gap.
KERNEL_INDICES = [float(q) for q in np.linspace(0.2, 2.8, 27)] + [
    1.0, 1.0 - 1e-12, 1.0 + 1e-12]


class TestArrayKernels:
    @pytest.mark.parametrize("q", KERNEL_INDICES)
    def test_agrees_with_scalar(self, q):
        rng = np.random.default_rng(7)
        x = rng.uniform(-3.0, 3.0, size=2000)
        x = x[1.0 + (1.0 - q) * x > 1e-2]
        np.testing.assert_allclose(_q_exp_array(q, x), [q_exp(q, v) for v in x],
                                   rtol=1e-14, atol=0.0)
        y = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), size=2000))
        np.testing.assert_allclose(_q_log_array(q, y), [q_log(q, v) for v in y],
                                   rtol=1e-14, atol=0.0)

    def test_domain_violation_names_first_bad_element(self):
        with pytest.raises(DomainViolation) as info:
            _q_exp_array(1.5, [0.0, 1.0, 3.0, 5.0])  # brackets 1, .5, -.5, -1.5
        assert info.value.index == 2
        assert info.value.constraint == -0.5

    def test_nonpositive_argument_names_first_bad_element(self):
        with pytest.raises(NonPositiveArgument) as info:
            _q_log_array(1.5, [1.0, 0.0, -1.0])
        assert info.value.name == "y[1]"

    @pytest.mark.parametrize("kernel, q, values", [
        (_q_exp_array, 1.0, [0.0, 1000.0]),
        (_q_exp_array, 0.999999, [1.0, 1e6]),
        (_q_log_array, -800.0, [1.0, 10.0]),
    ])
    def test_overflow_raises_without_warning(self, kernel, q, values):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="element 1"):
                kernel(q, values)
