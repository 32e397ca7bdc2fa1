"""Deformed product/ratio algebra and scale-drift expansion."""

import math
import warnings
from itertools import accumulate

import numpy as np
import pytest

from qdeform import (
    DomainViolation,
    NonPositiveArgument,
    ObservationSequence,
    RangeOverflow,
    q_exp,
    q_exp_bracket,
    q_log,
    q_log_sum,
    q_product,
    q_product_bracket,
    q_product_fold,
    q_ratio,
    scale_drift_expand,
)
from qdeform.core import _lift

Q_GRID = (0.3, 0.5, 1.0, 1.3, 1.7, 2.0, 2.5)


class TestQProduct:
    def test_square_roots_example(self):
        # (sqrt(4) + sqrt(9) - 1)**2 = 16
        assert q_product(0.5, 4.0, 9.0) == pytest.approx(16.0, rel=1e-14)

    def test_classical_is_plain_product(self):
        assert q_product(1.0, 3.0, 5.0) == 15.0

    def test_one_is_identity(self):
        for y in (0.3, 2.0, 11.0):
            assert q_product(1.7, 1.0, y) == pytest.approx(y, rel=1e-14)

    def test_bracket_violation(self):
        # q=3: 1/16 + 1/16 - 1 < 0
        with pytest.raises(DomainViolation) as err:
            q_product(3.0, 4.0, 4.0)
        assert err.value.constraint < 0.0
        assert q_product_bracket(3.0, 4.0, 4.0) == err.value.constraint
        assert q_product_bracket(1.0, 4.0, 4.0) == 1.0

    def test_rejects_nonpositive(self):
        with pytest.raises(NonPositiveArgument):
            q_product(0.5, -1.0, 2.0)

    # the bracket takes the product's arguments and checks them as it does
    @pytest.mark.parametrize("args, name, value", [
        ((0.5, 2.0, -1.0), "y", -1.0), ((0.5, 0.0, 1.0), "x", 0.0)])
    def test_bracket_rejects_nonpositive(self, args, name, value):
        with pytest.raises(NonPositiveArgument) as info:
            q_product_bracket(*args)
        assert (info.value.name, info.value.value) == (name, value)

    def test_associative(self):
        rng = np.random.default_rng(11)
        for q in Q_GRID:
            checked = 0
            while checked < 1000:
                x, y, z = np.exp(rng.uniform(np.log(0.2), np.log(5.0), size=3))
                try:
                    xy = q_product(q, x, y)
                    yz = q_product(q, y, z)
                    left = q_product(q, xy, z)
                    right = q_product(q, x, yz)
                except DomainViolation:
                    continue
                checked += 1
                assert left == pytest.approx(right, rel=1e-12)


class TestQRatio:
    def test_square_roots_example(self):
        assert q_ratio(0.5, 16.0, 9.0) == pytest.approx(4.0, rel=1e-14)

    def test_classical(self):
        assert q_ratio(1.0, 15.0, 5.0) == 3.0

    def test_self_ratio_is_one(self):
        for q in Q_GRID:
            assert q_ratio(q, 7.0, 7.0) == pytest.approx(1.0, rel=1e-14)

    def test_inverts_product(self):
        rng = np.random.default_rng(13)
        for _ in range(500):
            q = float(rng.uniform(0.2, 2.8))
            x = float(np.exp(rng.uniform(np.log(0.3), np.log(4.0))))
            y = float(np.exp(rng.uniform(np.log(0.3), np.log(4.0))))
            try:
                xy = q_product(q, x, y)
                back = q_ratio(q, xy, y)
            except DomainViolation:
                continue
            assert back == pytest.approx(x, rel=1e-12)


def exp_law_residual(q, x1, x2):
    """Relative residual of exp_q(x1 + x2) = exp_q(x1) (x)_q exp_q(x2)."""
    lhs = q_exp(q, x1 + x2)
    return abs(lhs - q_product(q, q_exp(q, x1), q_exp(q, x2))) / lhs


class TestExpLaw:
    def test_hand_case(self):
        # both sides equal 9 at q=0.5, arguments 2+2
        assert q_exp(0.5, 4.0) == pytest.approx(9.0, rel=1e-14)
        assert q_product(0.5, q_exp(0.5, 2.0), q_exp(0.5, 2.0)) == pytest.approx(
            9.0, rel=1e-14)
        assert exp_law_residual(0.5, 2.0, 2.0) < 1e-12

    def test_classical(self):
        assert exp_law_residual(1.0, 0.7, -1.9) < 1e-12

    def test_identity_factor(self):
        assert exp_law_residual(1.3, 0.0, 1.2) < 1e-12


class TestScaleDrift:
    def test_hand_case(self):
        seq = scale_drift_expand(0.5, [2.0, 2.0])
        assert seq.observed == (2.0, 1.0)
        # plain product of drifted factors reproduces the joint value
        assert 4.0 * q_exp(0.5, 1.0) == pytest.approx(q_exp(0.5, 4.0), rel=1e-14)

    def test_classical_no_drift(self):
        seq = scale_drift_expand(1.0, [0.4, -1.0, 2.2])
        assert seq.observed == (0.4, -1.0, 2.2)

    def test_zero_partial_sums_no_drift(self):
        seq = scale_drift_expand(1.3, [0.0, 0.0, 5.0])
        assert seq.observed == (0.0, 0.0, 5.0)

    def test_first_reading_keeps_reference_scale(self):
        seq = scale_drift_expand(1.7, [0.9, 0.1])
        assert seq.observed[0] == seq.shifts[0]

    def test_domain_error_names_step(self):
        # partial sum 4 at q=2 gives bracket 1-4 < 0 entering step 2
        with pytest.raises(DomainViolation) as err:
            scale_drift_expand(2.0, [4.0, 1.0])
        assert err.value.index == 1

    def test_product_equivalence_random(self):
        rng = np.random.default_rng(5)
        done = 0
        while done < 300:
            q = float(rng.uniform(0.2, 2.8))
            shifts = rng.uniform(-1.0, 1.0, size=int(rng.integers(1, 7)))
            total = float(np.sum(shifts))
            if q_exp_bracket(q, total) <= 1e-2:
                continue
            try:
                seq = scale_drift_expand(q, shifts)
            except DomainViolation:
                continue
            done += 1
            product = math.prod(q_exp(q, o) for o in seq.observed)
            assert product == pytest.approx(q_exp(q, total), rel=1e-10)

    def test_record_derives_its_readings(self):
        shifts = [0.4, -1.1, 0.7, 2.0]
        for q in Q_GRID:
            assert ObservationSequence(q, shifts) == scale_drift_expand(q, shifts)
        assert ObservationSequence(1.5, np.array([0.5, 0.5])).shifts == (0.5, 0.5)

    def test_readings_are_not_an_input(self):
        with pytest.raises(TypeError):
            ObservationSequence(1.5, (1.0,), observed=(1.0,))

    def test_record_names_failing_step(self):
        with pytest.raises(DomainViolation) as err:
            ObservationSequence(2.0, [4.0, 1.0])
        assert err.value.index == 1
        assert err.value.constraint == q_exp_bracket(2.0, 4.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ObservationSequence(1.5, [])

    @pytest.mark.parametrize("shifts, index", [([math.nan], 0), ([1.0, math.inf], 1)])
    def test_non_finite_shift_is_named(self, shifts, index):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"^shifts\[{index}\] must be finite"):
                ObservationSequence(1.5, shifts)

    def test_partial_sum_overflow_names_step(self):
        # at q = 1 the bracket of an infinite partial sum is 1 + 0 * inf = nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RangeOverflow) as err:
                scale_drift_expand(1.0, [1e308, 1e308, 1.0])
        assert err.value.q == 1.0
        assert str(err.value) == "partial sum of shifts at q=1.0 overflows a double (step 2)"


class TestFold:
    def test_three_factor_case(self):
        # deformed logs of 4, 9, 16 at index 0.5 are 2, 4, 6; their sum maps
        # back through exp_q(12) = (1 + 6)**2 = 49
        assert q_log_sum(0.5, [4.0, 9.0, 16.0]) == pytest.approx(12.0, rel=1e-14)
        assert q_product_fold(0.5, [4.0, 9.0, 16.0]) == pytest.approx(49.0, rel=1e-13)

    def test_classical(self):
        assert q_product_fold(1.0, [2.0, 3.0, 4.0]) == pytest.approx(24.0, rel=1e-15)

    def test_single_factor(self):
        assert q_product_fold(1.9, [3.7]) == 3.7

    def test_matches_qlog_sum_route(self):
        rng = np.random.default_rng(23)
        done = 0
        while done < 300:
            q = float(rng.uniform(0.2, 2.8))
            factors = np.exp(rng.uniform(np.log(0.3), np.log(4.0),
                                         size=int(rng.integers(1, 6))))
            try:
                folded = q_product_fold(q, factors)
            except DomainViolation:
                continue
            done += 1
            assert folded == pytest.approx(
                q_exp(q, q_log_sum(q, factors)), rel=1e-12)

    def test_fold_error_reports_index(self):
        # 4**-2 + 4**-2 - 1 at the first step
        with pytest.raises(DomainViolation) as err:
            q_product_fold(3.0, [4.0, 4.0, 4.0])
        assert err.value.index == 1 and err.value.constraint == -0.875

    # each factor is checked as its step comes: the bracket of step 1 fails
    # before factors[2] is read, and factors[1] before any bracket
    def test_fold_errors_come_in_loop_order(self):
        with pytest.raises(DomainViolation) as err:
            q_product_fold(3.0, [4.0, 4.0, -1.0])
        assert err.value.index == 1 and err.value.constraint == -0.875
        with pytest.raises(NonPositiveArgument) as err:
            q_product_fold(3.0, [4.0, -1.0, 4.0])
        assert err.value.name == "factors[1]"
        # only the whole product can leave the double range: one below the
        # smallest double is 0.0, whatever the step
        assert q_product_fold(1.0, [1e-300, 1e-300]) == 0.0
        assert q_product_fold(1.0, [1e-300, 1e-300, 2.0]) == 0.0

    def test_fold_total_alone_can_fail_at_the_last_index(self):
        # every running sum of the lifts stays above -1, but their fsum is -1
        factors = [0.8978211100832465, 0.06036010268437628, 0.6508985548855215]
        running = list(accumulate(_lift(0.5, f) for f in factors))  # the fold's own sums
        assert min(running) > -1.0
        with pytest.raises(DomainViolation) as err:
            q_product_fold(0.5, factors)
        assert err.value.index == 2 and err.value.constraint == 0.0

    # the closed form forms no intermediate product
    @pytest.mark.parametrize("factors, product", [
        ([1e200, 1e200, 1e-300], 1e100), ([1e-300, 1e-300, 1e300], 1e-300)])
    def test_classical_intermediates_may_leave_the_double_range(self, factors, product):
        assert q_product_fold(1.0, factors) == pytest.approx(product, rel=1e-13)

    @staticmethod
    def _left_fold(q, factors):
        """The fold through the public q_product, one call a step."""
        acc = factors[0]
        for i, f in enumerate(factors[1:], 1):
            try:
                acc = q_product(q, acc, f)
            except DomainViolation as err:
                return ("bracket", i, err.constraint)
        return acc

    # the closed form agrees with the left fold within 1e-12, or fails at
    # the same step with the same bracket
    @pytest.mark.parametrize("sizes", [(1, 6), (1000, 1001)])
    def test_bits_match_left_fold_through_q_product(self, sizes):
        rng = np.random.default_rng(29)
        for k in range(300 if sizes[0] == 1 else 20):
            q = 1.0 if k % 5 == 0 else float(rng.uniform(0.2, 2.8))
            n = int(rng.integers(*sizes))
            spread = 1.5 if n < 10 else 0.05
            factors = np.exp(rng.uniform(-spread, spread, size=n)).tolist()
            ref = self._left_fold(q, factors)
            try:
                folded = q_product_fold(q, factors)
            except DomainViolation as err:
                assert ref[:2] == ("bracket", err.index)
                assert err.constraint == pytest.approx(ref[2], rel=1e-12, abs=1e-12)
            else:
                assert folded == pytest.approx(ref, rel=1e-12)

    # brackets 1 + S_j drawn in [0.05, 0.5] before step i and in
    # [-0.45, -0.05] at it, clear of verify's 1e-2 margin on either side
    def test_failing_step_is_where_the_running_bracket_crosses_zero(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            q = float(rng.choice([rng.uniform(0.2, 0.9), rng.uniform(1.1, 2.8)]))
            i = int(rng.integers(1, 6))
            brackets = np.append(rng.uniform(0.05, 0.5, size=i), rng.uniform(-0.45, -0.05))
            lifts = np.diff(brackets, prepend=1.0)
            factors = [*((1.0 + lifts) ** (1.0 / (1.0 - q))).tolist(),
                       *rng.uniform(0.3, 4.0, size=3).tolist()]
            with pytest.raises(DomainViolation) as err:
                q_product_fold(q, factors)
            assert err.value.index == i
            assert err.value.constraint == pytest.approx(brackets[-1], abs=1e-12)
            assert self._left_fold(q, factors)[:2] == ("bracket", i)
