"""Deformed-exponential distributions and the unique affine log form."""

import math

import numpy as np
import pytest

from qdeform import (
    DiscreteQDistribution,
    DomainViolation,
    build_distribution,
    canonical_form,
    q_exp,
    q_exp_bracket,
    q_log,
    split_representation,
)


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

