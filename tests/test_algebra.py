"""Deformed product/ratio algebra and scale-drift expansion."""

import math

import numpy as np
import pytest

from qdeform import (
    DomainViolation,
    NonPositiveArgument,
    q_exp,
    q_exp_bracket,
    q_exp_law_check,
    q_log,
    q_log_sum,
    q_product,
    q_product_bracket,
    q_product_fold,
    q_ratio,
    scale_drift_expand,
)

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

    def test_commutative_and_associative(self):
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
                assert q_product(q, y, x) == pytest.approx(xy, rel=1e-12)
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


class TestExpLaw:
    def test_hand_case(self):
        # both sides equal 9 at q=0.5, arguments 2+2
        assert q_exp(0.5, 4.0) == pytest.approx(9.0, rel=1e-14)
        assert q_product(0.5, q_exp(0.5, 2.0), q_exp(0.5, 2.0)) == pytest.approx(
            9.0, rel=1e-14)
        assert q_exp_law_check(0.5, 2.0, 2.0) < 1e-12

    def test_classical(self):
        assert q_exp_law_check(1.0, 0.7, -1.9) < 1e-12

    def test_identity_factor(self):
        assert q_exp_law_check(1.3, 0.0, 1.2) < 1e-12


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
        with pytest.raises(DomainViolation) as err:
            q_product_fold(3.0, [4.0, 4.0, 4.0])
        assert err.value.index in (1, 2)
