"""Deformed factorial sums, the asymptotic formula, and Tsallis entropy."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qdeform
from qdeform import (
    combinatorics,
    q_log,
    q_log_factorial,
    q_log_multinomial,
    q_stirling,
    tsallis_correspondence,
    tsallis_entropy,
)
from qdeform.verify import _exact_log_factorial

import mp60

# 40-digit reference values
LN_120 = 4.787491742782045994248          # log(5!)
LN_100_FACT = 363.7393755555634901441     # log(100!)
STIRLING_Q1_100 = 363.8196036918031824876  # formula value at q=1, n=100
STIRLING_Q2_100 = 94.88982981401190863196  # formula value at q=2, n=100
EXACT_Q2_100 = 94.81262248236037973919     # 100 - H_100

# sums of log_q(k) over k <= 5000 at the double nearest q, to 22 digits
EXACT_5000 = {
    1.0 - 1e-9: 37591.14365266437917512,
    1.0 + 1e-9: 37591.14336508913874192,
    2.0 - 1e-9: 4990.905496101722143207,
    2.0 + 1e-9: 4990.905486192308992562,
    0.5: 461474.8168752116843655,
    1.5: 9720.063854643078692721,
}
HEAD = combinatorics._HEAD  # terms summed exactly before the Euler-Maclaurin tail
EULER_GAMMA = 0.5772156649015328606065


class TestLogFactorial:
    def test_single_term_is_zero(self):
        for q in (0.5, 1.0, 2.0):
            assert q_log_factorial(q, 1) == 0.0

    def test_classical_five(self):
        assert q_log_factorial(1.0, 5) == pytest.approx(LN_120, rel=1e-14)

    def test_index_two_three(self):
        # 0 + 1/2 + 2/3
        assert q_log_factorial(2.0, 3) == pytest.approx(7.0 / 6.0, rel=1e-14)

    def test_matches_scalar_sum(self):
        for q in (0.4, 1.6):
            expected = math.fsum(q_log(q, k) for k in range(1, 200))
            assert q_log_factorial(q, 199) == pytest.approx(expected, rel=1e-14)

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            q_log_factorial(1.0, 0)

    @pytest.mark.parametrize("n", [2.5, math.inf, math.nan, -math.inf, "3"])
    def test_rejects_non_integer_n(self, n):
        with pytest.raises(ValueError, match="n must be a positive integer"):
            q_log_factorial(1.5, n)

    def test_accepts_integral_float_and_numpy_int(self):
        assert q_log_factorial(1.5, 7.0) == q_log_factorial(1.5, np.int64(7)) \
            == q_log_factorial(1.5, 7)


class TestLogFactorialTail:
    @settings(max_examples=40, deadline=None)
    @given(q=st.floats(-3.0, 6.0), n=st.integers(1, 100_000))
    def test_matches_exact_sum(self, q, n):
        exact = _exact_log_factorial(q, n)
        assert abs(q_log_factorial(q, n) - exact) <= 1e-12 * exact

    @pytest.mark.parametrize("q", sorted(EXACT_5000))
    def test_pinned_values_near_the_branch_points(self, q):
        assert q_log_factorial(q, 5000) == pytest.approx(EXACT_5000[q], rel=1e-14)

    @pytest.mark.parametrize("q", [-3.0, -1.0, 0.0, 0.5, 1.0 - 1e-9, 1.0, 1.5,
                                   2.0 - 1e-9, 2.0, 2.0 + 1e-9, 3.5, 6.0])
    def test_seam_adds_one_term(self, q):
        total = q_log_factorial(q, HEAD + 1)
        step = total - q_log_factorial(q, HEAD)
        assert abs(step - q_log(q, HEAD + 1.0)) <= 1e-12 * total

    def test_head_is_the_exact_sum(self):
        for q in (-2.5, 0.5, 1.0, 1.7, 2.0, 4.0):
            for n in (2, HEAD // 2, HEAD):
                assert q_log_factorial(q, n) == _exact_log_factorial(q, n)

    def test_closed_forms_at_a_trillion(self):
        n = 10**12
        harmonic = math.log(n) + EULER_GAMMA + 0.5 / n - 1.0 / (12.0 * n * n)
        assert q_log_factorial(0.0, n) == pytest.approx(n * (n - 1) / 2, rel=1e-13)
        assert q_log_factorial(1.0, n) == pytest.approx(math.lgamma(n + 1.0), rel=1e-14)
        assert q_log_factorial(2.0, n) == pytest.approx(n - harmonic, rel=1e-14)

    def test_memory_is_flat(self, assert_peak_alloc):
        assert_peak_alloc(1 << 20, q_log_factorial, 1.5, 10**12)
        assert_peak_alloc(1 << 20, q_log_multinomial, 0.5, [10**11] * 3)


# q drawn once in each sixteenth of [-3, 6], so that q < -2, where the tail is
# worst conditioned, is always drawn, with the branch points' neighbours; the
# 60-digit reference's exact head costs about 40 ms per q
_RNG = np.random.default_rng(36)
INDICES = (-3.0 + 9.0 / 16.0 * (np.arange(16) + _RNG.random(16))).tolist() + [
    1.0 - 1e-9, 1.0 + 1e-9, 2.0 - 1e-9, 2.0 + 1e-9]
# per index, three n just past the exact head, where the tail starts, and three up to 1e7
FACTORIAL_CASES = [(q, _RNG.integers(HEAD + 1, 1025, 3).tolist() + np.exp(
    _RNG.uniform(math.log(1025.0), math.log(1e7), 3)).astype(int).tolist()) for q in INDICES]
# two and three counts log-uniform up to 1e12
MULTINOMIAL_CASES = [(q, (10.0 ** _RNG.uniform(0.0, 12.0, k)).astype(int).tolist())
                     for q in INDICES[::2] + [0.0, 1.0, 2.0] for k in (2, 3)]


def _relative_error(value, reference):
    with mpmath.workdps(mp60.DIGITS):
        return float(abs(value - reference) / abs(reference))


def _multinomial_60_digits(q, counts):
    with mpmath.workdps(mp60.DIGITS):
        return mp60.log_factorial(q, sum(counts)) - mpmath.fsum(
            mp60.log_factorial(q, c) for c in counts)


class TestLogFactorialAccuracy:
    @pytest.mark.parametrize("q, ns", FACTORIAL_CASES)
    def test_within_the_stated_bound(self, q, ns):
        errors = [_relative_error(q_log_factorial(q, n), mp60.log_factorial(q, n)) for n in ns]
        assert max(errors) <= 6.4e-14, errors

    # the module docstring's witnesses, at q < -2 where n**(2-q) is ill-conditioned
    @pytest.mark.parametrize("q, n, worst", [(-2.7321428571428568, 2163319, 6.0e-14),
                                             (-2.9464285714285716, 898, 2.7e-14),
                                             (-2.9464285714285716, 10**9, 1.1e-13)])
    def test_worst_measured_error(self, q, n, worst):
        assert _relative_error(q_log_factorial(q, n), mp60.log_factorial(q, n)) <= worst

    # past the 64-term head the B8 truncation read 2.5e-11 at q = -40 and
    # 2.9e-10 at q = -50; a head of 3|q| terms leaves the tail's conditioning
    @pytest.mark.parametrize("q", [-40.0, -50.0, -70.0])
    def test_far_below_zero(self, q):
        errors = [_relative_error(q_log_factorial(q, n), mp60.log_factorial(q, n))
                  for n in (65, 71, 128, 256, 1500)]
        assert max(errors) <= 1e-11, errors


class TestMultinomialAccuracy:
    # subtracting the other counts' factorials, as log_q k saturates for q > 1,
    # read up to 3.5e-7 on a grid drawn so
    @pytest.mark.parametrize("q, counts", MULTINOMIAL_CASES)
    def test_counts_up_to_a_trillion(self, q, counts):
        assert _relative_error(q_log_multinomial(q, counts),
                               _multinomial_60_digits(q, counts)) <= 1e-14

    # the subtraction read 3.3e-13, 4.8e-11, 4.3e-11 and 7.5e-10 at [10**12, 10**7],
    # and up to 9.0e-5 at [10**12, 10**12]
    @pytest.mark.parametrize("q", [1.5, 2.0, 3.0, 6.0])
    @pytest.mark.parametrize("counts", [[10**12, 10**7], [10**12, 10**12], [10**6, 10**5, 17],
                                        [10**7, 1000]])
    def test_large_counts_for_q_above_one(self, q, counts):
        assert _relative_error(q_log_multinomial(q, counts),
                               _multinomial_60_digits(q, counts)) <= 1e-14


class TestStirling:
    def test_classical_formula_value(self):
        assert q_stirling(1.0, 100) == pytest.approx(STIRLING_Q1_100, rel=1e-14)
        # and it approximates the exact sum at ~2e-4 relative here
        assert q_stirling(1.0, 100) == pytest.approx(LN_100_FACT, rel=3e-4)

    def test_singular_branch_value(self):
        assert q_stirling(2.0, 100) == pytest.approx(STIRLING_Q2_100, rel=1e-14)
        assert q_log_factorial(2.0, 100) == pytest.approx(EXACT_Q2_100, rel=1e-14)

    def test_error_shrinks_with_n(self):
        q = 1.5
        small = abs(q_stirling(q, 10) - q_log_factorial(q, 10)) \
            / abs(q_log_factorial(q, 10))
        large = abs(q_stirling(q, 1000) - q_log_factorial(q, 1000)) \
            / abs(q_log_factorial(q, 1000))
        assert large < small

    @pytest.mark.parametrize("n", [2.9, 0, math.inf, math.nan])
    def test_rejects_non_integer_n(self, n):
        with pytest.raises(ValueError, match="n must be a positive integer"):
            q_stirling(1.5, n)

    def test_relative_error_monotone_grid(self):
        for q in (0.5, 1.0, 1.5, 2.0, 2.5):
            errs = []
            for n in (10, 100, 1000, 10000):
                exact = q_log_factorial(q, n)
                errs.append(abs(q_stirling(q, n) - exact) / abs(exact))
            assert all(b <= a for a, b in zip(errs, errs[1:])), (q, errs)


class TestMultinomial:
    def test_classical_binomial(self):
        assert q_log_multinomial(1.0, [2, 3]) == pytest.approx(
            math.log(10.0), rel=1e-13)

    def test_single_block_vanishes(self):
        for q in (0.5, 1.0, 2.2):
            assert q_log_multinomial(q, [17]) == 0.0

    def test_index_two_pair(self):
        assert q_log_multinomial(2.0, [1, 1]) == pytest.approx(0.5, rel=1e-14)

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            q_log_multinomial(1.0, [2, 0])
        with pytest.raises(ValueError):
            q_log_multinomial(1.0, [])

    @pytest.mark.parametrize("bad", [2.5, math.inf, math.nan])
    def test_bad_count_is_named(self, bad):
        with pytest.raises(ValueError, match=r"counts\[1\] must be a positive integer"):
            q_log_multinomial(1.0, [2, bad])

    # the multinomial of (n-1, 1) is n, exactly; subtracting log_q((n-1)!)
    # from log_q(n!) left 6.5e-5 relative of ln(n) at n = 10**12
    @pytest.mark.parametrize("n", [10**9, 10**12])
    @pytest.mark.parametrize("q", [0.0, 0.5, 1.0, 1.5, 2.0, 2.5])
    def test_unbalanced_counts_do_not_cancel(self, q, n):
        assert q_log_multinomial(q, [n - 1, 1]) == pytest.approx(q_log(q, n), rel=1e-13)
        assert q_log_multinomial(q, [1, n - 1]) == q_log_multinomial(q, [n - 1, 1])

    # log of the binomial coefficient, mpmath loggamma at 50 digits; the
    # tail between two large bounds once cancelled in b log_q b - a log_q a
    # and read 2.4e-8 and 1.1e-11 relative off these
    @pytest.mark.parametrize("counts, expected", [
        ([10**12, 5000], 100563.9620832684744510667),
        ([10**12, 10**7], 125129295.6715542513253954),
    ])
    def test_two_large_counts_do_not_cancel(self, counts, expected):
        assert q_log_multinomial(1.0, counts) == pytest.approx(expected, rel=1e-13)


class TestTsallisEntropy:
    def test_two_outcomes_index_two(self):
        assert tsallis_entropy(2.0, [0.5, 0.5]) == pytest.approx(0.5, rel=1e-14)

    def test_deterministic_vanishes(self):
        for q in (0.5, 1.0, 1.5, 2.0, 6.0):
            for p in ([1.0, 0.0, 0.0], [1.0, 0.0], [1.0]):
                value = tsallis_entropy(q, p)
                assert value == 0.0
                assert math.copysign(1.0, value) == 1.0, (q, p)  # +0.0, not -0.0

    def test_uniform_equals_qlog_of_k(self):
        for q in (0.5, 1.3, 2.0):
            for k in (2, 4, 9):
                assert tsallis_entropy(q, np.ones(k) / k) == pytest.approx(
                    q_log(q, float(k)), rel=1e-12)

    def test_uniform_four_index_two(self):
        assert tsallis_entropy(2.0, [0.25] * 4) == pytest.approx(0.75, rel=1e-14)

    def test_classical_is_shannon(self):
        p = [0.5, 0.25, 0.25]
        assert tsallis_entropy(1.0, p) == pytest.approx(
            1.5 * math.log(2.0), rel=1e-14)

    def test_classical_limit(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            u = rng.uniform(0.1, 1.0, size=10)
            p = u / u.sum()
            shannon = tsallis_entropy(1.0, p)
            for q in (1.0 - 1e-6, 1.0 + 1e-6):
                assert abs(tsallis_entropy(q, p) - shannon) <= 1e-4

    def test_uniform_maximality(self):
        rng = np.random.default_rng(9)
        for q in (0.5, 1.0, 2.0):
            for k in (2, 5, 10):
                bound = tsallis_entropy(q, np.ones(k) / k)
                for _ in range(200):
                    v = rng.uniform(0.0, 1.0, size=k) + 1e-12
                    assert tsallis_entropy(q, v / v.sum()) <= bound + 1e-12

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            tsallis_entropy(1.5, [0.5, 0.4])

    # a string is not taken as a vector of its characters
    @pytest.mark.parametrize("p", ["1", "01", b"01", 1.0, [], [[0.5, 0.5]],
                                   np.array([[0.5, 0.5]]), np.array(1.0)])
    def test_rejects_non_vector(self, p):
        with pytest.raises(ValueError, match="1-d and non-empty"):
            tsallis_entropy(1.0, p)

    @pytest.mark.parametrize("p", [[0.5, 0.5 + 0j], np.array([0.5, 0.5], dtype=complex)])
    def test_rejects_complex_entry(self, p):
        with pytest.raises(ValueError, match=r"must be real, got \(0\.5\+0j\)"):
            tsallis_entropy(1.0, p)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.25])
    def test_rejects_nonfinite_or_negative_entry(self, bad):
        with pytest.raises(ValueError, match="finite and non-negative"):
            tsallis_entropy(1.5, [1.0, bad, 0.25])

    # at q = -1000, 0.3**q passes the largest double, and so does the entropy
    @pytest.mark.parametrize("q, p", [(-1000.0, [0.3, 0.7])])
    def test_overflow_names_index(self, q, p):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match=f"q={q!r}"):
                tsallis_entropy(q, p)

    # at q = -1023 the sum of the powers 0.5**q passes the largest double,
    # but the entropy (2**1024 - 1)/1024 does not; the bounded log factor
    # keeps every term below it.  At large q the terms go to 1/(q - 1).
    @pytest.mark.parametrize("q, p, expected", [
        (-1023.0, [0.5, 0.5], 1.7555597020139804e305),
        (1100.0, [0.5, 0.5], 1.0 / 1099.0),
        (1e300, [0.5, 0.5], 1e-300),
    ])
    def test_finite_entropy_past_the_power_sum(self, q, p, expected):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert tsallis_entropy(q, p) == pytest.approx(expected, rel=1e-15)

    def test_large_finite_value_is_returned(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = tsallis_entropy(-400.0, [0.3, 0.7])
        assert value == pytest.approx((0.3 ** -400 + 0.7 ** -400 - 1.0) / 401.0,
                                      rel=1e-12)


def _entropy_60_digits(p, qs):
    """60-digit S_q(p / sum(p)) = sum P_i log_q(1/P_i) at each q of qs."""
    with mpmath.workdps(60):
        total = mpmath.fsum(mpmath.mpf(v) for v in p)
        terms = [(x, mpmath.log(x)) for x in (mpmath.mpf(v) / total for v in p if v > 0.0)]
        values = []
        for q in map(mpmath.mpf, qs):
            if q == 1:
                values.append(-mpmath.fsum(x * ln for x, ln in terms))
            else:
                values.append(mpmath.fsum(x * mpmath.expm1((q - 1) * ln) for x, ln in terms)
                              / (1 - q))
        return values


class TestTsallisAccuracy:
    INDICES = np.linspace(-3.0, 6.0, 19).tolist() + [1.0 - 1e-9, 1.0 + 1e-9,
                                                     2.0 - 1e-9, 2.0 + 1e-9]

    def worst(self, weights):
        """Worst relative error over INDICES of the entropy of each weights
        row normalized in floating point, against the 60-digit entropy."""
        worst = 0
        for u in weights:
            p = (u / u.sum()).tolist()
            for q, exact in zip(self.INDICES, _entropy_60_digits(p, self.INDICES)):
                worst = max(worst, abs(tsallis_entropy(q, p) / exact - 1))
        return float(worst)

    # the q-exp-side form (1 - sum p**q)/(q - 1) read 4e-7 here at q = 1 -/+ 1e-9
    def test_within_an_ulp_of_the_normalized_entropy(self):
        rng = np.random.default_rng(16)
        assert self.worst(rng.uniform(0.0, 1.0, size=k)
                          for k in rng.integers(2, 12, size=200)) <= 1e-15

    # near a vertex the rounding of sum(p) - 1 weighs against an entropy near
    # 0: summed for p as given, without p/sum(p), these read up to 9e-7
    @pytest.mark.parametrize("eps", [1e-3, 1e-9])
    def test_near_a_vertex(self, eps):
        rng = np.random.default_rng(17)
        assert self.worst(np.concatenate([[1.0], eps * rng.uniform(0.0, 1.0, size=k)])
                          for k in (1, 2, 4) for _ in range(5)) <= 1e-15


class TestCorrespondence:
    def test_balanced_thousand_classical(self):
        lhs, rhs, rel = tsallis_correspondence(1.0, [500, 500])
        assert rhs == pytest.approx(1000.0 * math.log(2.0), rel=1e-13)
        assert rel < 1e-2

    def test_error_decays_with_n(self):
        small = tsallis_correspondence(1.5, [50, 50])[2]
        large = tsallis_correspondence(1.5, [5000, 5000])[2]
        assert large < small

    def test_single_block_trivial(self):
        lhs, rhs, rel = tsallis_correspondence(0.5, [1000])
        assert lhs == 0.0
        assert rhs == 0.0
        assert rel == 0.0

    def test_index_two_is_its_own_branch(self):
        # only bitwise q == 2 takes -log(n) + sum_i log(n_i); the generic
        # form has a 1/(2-q) pole there
        assert tsallis_correspondence(2.0, [3, 4])[1] == pytest.approx(
            math.log(12.0 / 7.0), rel=1e-15)
        assert tsallis_correspondence(math.nextafter(2.0, 0.0), [3, 4])[1] > 1e15

    def test_q2_has_no_function_of_its_own(self):
        for module in (qdeform, combinatorics):
            assert not hasattr(module, "tsallis_correspondence_q2")

    def test_q2_trivial_cases(self):
        for counts in ([1], [1000]):
            lhs, rhs, rel = tsallis_correspondence(2.0, counts)
            assert lhs == 0.0
            assert rhs == pytest.approx(0.0, abs=1e-12)

    def test_q2_balanced_value(self):
        # exact sum: 1000 - H_1000 - 2*(500 - H_500) = -H_1000 + 2 H_500
        lhs, rhs, rel = tsallis_correspondence(2.0, [500, 500])
        assert lhs == pytest.approx(6.10017599943070429, rel=1e-13)
        assert rhs == pytest.approx(math.log(250.0), rel=1e-14)

    def test_q2_error_shrinks(self):
        assert tsallis_correspondence(2.0, [500, 500])[2] < \
            tsallis_correspondence(2.0, [50, 50])[2]
