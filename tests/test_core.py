"""Unit and property tests for the deformed log/exp pair."""

import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdeform import (
    DomainViolation,
    NonPositiveArgument,
    QGaussianModel,
    RangeOverflow,
    analytic_solution,
    beta_from,
    canonical_form,
    compose_shifts,
    frequency_rescale,
    integrate_ode,
    q_exp,
    q_exp_bracket,
    q_gaussian_pdf,
    q_log,
    q_log_factorial,
    q_log_multinomial,
    q_log_of_ratio,
    q_log_sum,
    q_product,
    q_product_bracket,
    q_product_fold,
    q_ratio,
    build_distribution,
    q_stirling,
    rescale_factor,
    scale_drift_expand,
    shift_expansion,
    split_representation,
    tsallis_correspondence,
    tsallis_entropy,
)
from qdeform._array import _q_exp_array, _q_log_array

import mp60

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

    def test_lift_past_the_largest_double(self):
        # y**(1-q) passes the largest double in a window of width ln|1-q| in
        # t = (1-q) ln y before log_q does; there the lift is taken from t
        exact = mp60.log_q(-3.0, 1.5e77)  # 1.2656e308
        assert abs(q_log(-3.0, 1.5e77) - exact) <= 1e-12 * exact
        assert _q_log_array(-3.0, [1.5e77]).tolist() == [q_log(-3.0, 1.5e77)]
        rng = np.random.default_rng(33)
        q = np.where(rng.random(500) < 0.5, rng.uniform(-10.0, 10.0, 500), 1.0 - rng.choice(
            [-1.0, 1.0], 500) * 10.0 ** rng.uniform(0.0, 5.0, 500))
        t = rng.uniform(709.0, 710.0 + np.log(np.abs(1.0 - q)).clip(0.0))
        with np.errstate(over="ignore"):
            ys = np.exp(t / (1.0 - q))
        returned = 0
        for qi, yi in zip(q.tolist(), ys.tolist()):
            if not 0.0 < yi < math.inf:
                continue
            exact = mp60.log_q(qi, yi)
            if abs(exact) > sys.float_info.max:
                with pytest.raises(RangeOverflow):
                    q_log(qi, yi)
            elif abs(exact) < sys.float_info.max * (1.0 - 1e-12):
                assert abs(q_log(qi, yi) - exact) <= 1e-12 * abs(exact)
                returned += 1
        assert returned > 100

    def test_one_factor_sum_and_ratio_to_one_past_the_lift_range(self):
        # a one-factor sum and the ratio to 1 are log_q y, also where the
        # lift y**(1-q) = 1.5e77**4 passes the largest double
        assert q_log(-3.0, 1.5e77) == 1.2656249999999911e308
        assert q_log_sum(-3.0, [1.5e77]) == q_log(-3.0, 1.5e77)
        assert q_log_of_ratio(-3.0, 1.5e77, 1.0) == q_log(-3.0, 1.5e77)

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

    @pytest.mark.parametrize("q, x", [
        (5.781601218438114e288, -1.2942218372025844e226),  # 1 - 2e-286
        (-1e300, 1e10),  # 1 + 7e-298
        (-3.37e215, 1.26e242),
        (500.0, -1e306),  # 0.24
        (-1e10, 1e300),  # 1.0000000713801405
    ])
    def test_argument_term_past_the_largest_double(self, q, x):
        # (1-q)*x passes the largest double: log1p of it is ln|1-q| + ln|x| + log1p(1/d)
        exact = mp60.exp_q(q, x)
        assert abs(q_exp(q, x) - exact) <= 2.0 ** -52 * exact
        assert _q_exp_array(q, [x]).tolist() == [q_exp(q, x)] == [_q_exp_array(q, x)]

    def test_frequency_column_past_the_largest_double(self):
        # f_raw = exp_q(-1e226), which is 1 - 2e-286
        table = frequency_rescale(5.781601218438114e288, 1.0, 0.0, [1e113])
        assert table.column("f_raw").tolist() == [1.0]


# results past the largest double: math.exp / math.expm1 raise a bare
# "math range error", a float power a bare "(34, 'Numerical result out of
# range')", math.fsum a bare "intermediate overflow in fsum", and an
# argument term (1-q)*x or a product past it makes inf (and inf - inf
# makes nan); an n past the largest double cannot even become a float
@pytest.mark.parametrize("fn, args, named", [
    (q_exp, (0.5, 1e300), "q=0.5 overflows a double (x=1e+300)"),
    (analytic_solution, (0.5, 1.0, 1, 1e300),
     "analytic_solution at q=0.5 overflows a double (scale=1.0, x=1e+300)"),
    (rescale_factor, (0.5, -1e300, 1.0), "q=0.5 overflows a double (x=1e+300)"),
    # a grid of 2**63 points, for which np.arange returns an empty array
    (integrate_ode, (1.3, 0.0, 1.0, -1, 1.0, 2.0 ** -63),
     "integrate_ode step count at q=1.3 overflows a double"
     " (x0=0.0, x_end=1.0, step=1.0842021724855044e-19)"),
    (q_log, (1.7976931348623157e308, 1.54e-82),
     "q=1.7976931348623157e+308 overflows a double (y=1.54e-82)"),
    (q_product, (-1e300, 1e300, 1e300),
     "q_product at q=-1e+300 overflows a double (x=1e+300, y=1e+300)"),
    (q_product, (1.0 - 1e-10, 1e300, 1e300),  # only the final exp overflows
     "q_product at q=0.9999999999 overflows a double (x=1e+300, y=1e+300)"),
    (q_ratio, (-1e300, 1e300, 1e-300),
     "q_ratio at q=-1e+300 overflows a double (x=1e+300, y=1e-300)"),
    (q_ratio, (1.7976931348623157e308, 5e-324, 2.23e-98),
     "q_ratio at q=1.7976931348623157e+308 overflows a double (x=5e-324, y=2.23e-98)"),
    (q_product_bracket, (1e300, 5e-324, 2.0),
     "q_product_bracket at q=1e+300 overflows a double (x=5e-324, y=2.0)"),
    # scale**(1-q) past the largest double, and the value (2.67e308) with it
    (analytic_solution, (-0.001, 1.79e308, 1, 1.79e308),
     "analytic_solution at q=-0.001 overflows a double (scale=1.79e+308, x=1.79e+308)"),
    (analytic_solution, (0.5, 1e300, 1, 1e155),
     "analytic_solution at q=0.5 overflows a double (scale=1e+300, x=1e+155)"),
    (compose_shifts, (0.5, 1e150, 1e150),
     "compose_shifts at q=0.5 overflows a double (shift1=1e+150, shift2=1e+150)"),
    (q_stirling, (0.5, 10**308), f"q_stirling at q=0.5 overflows a double (n={10**308})"),
    (q_stirling, (1.5, 10**308), f"q_stirling at q=1.5 overflows a double (n={10**308})"),
    (build_distribution, (1.0, [0.0, 0.0], 709.7),
     "frequency total at q=1.0 overflows a double (shift=709.7)"),
    (split_representation, (1.0, [0.0, 0.0], 0.0, 709.7),
     "frequency total at q=1.0 overflows a double (shift1=0.0, shift2=709.7)"),
    (q_log_sum, (0.0, [1e308] * 3), "q_log_sum at q=0.0 overflows a double (3 factors)"),
    (q_log_factorial, (-5.0, 10**80),
     f"log_q_factorial at q=-5.0 overflows a double (n={10**80})"),
    (q_log_factorial, (-5.0, 10**45),  # inf - inf among the tail's terms
     f"log_q_factorial at q=-5.0 overflows a double (n={10**45})"),
    (q_log_factorial, (1.5, 10**400),
     f"log_q_factorial at q=1.5 overflows a double (n={10**400})"),
    (q_log_multinomial, (-5.0, [10**80, 1]),
     f"log_q_factorial at q=-5.0 overflows a double (n={10**80 + 1})"),
    (q_log_multinomial, (1.5, [10**400, 2]),
     f"log_q_factorial at q=1.5 overflows a double (n={10**400 + 2})"),
    # the q = 1 branch: a plain product or quotient past the largest double
    (q_product, (1.0, 1e308, 10.0), "q_product at q=1.0 overflows a double (x=1e+308, y=10.0)"),
    (q_ratio, (1.0, 1e308, 0.1), "q_ratio at q=1.0 overflows a double (x=1e+308, y=0.1)"),
    (q_product_fold, (1.0, [1e308, 10.0]),
     "q_product_fold at q=1.0 overflows a double (2 factors)"),
    # a quotient past the largest double, and expm1((1-q) ln(y/x)) with it
    (q_log_of_ratio, (-1.36, 0.81, 5e-324),
     "log_q ratio at q=-1.36 overflows a double (y=0.81, x=5e-324)"),
    (q_log_of_ratio, (0.18, 1.1e197, 3e-206),
     "log_q ratio at q=0.18 overflows a double (y=1.1e+197, x=3e-206)"),
    # an exp_q argument computed from finite inputs passed the largest double
    (rescale_factor, (1e-300, -1e300, 1.7976931348623157e308),
     "rescale_factor at q=1e-300 overflows a double (x0=-1e+300, y0=1.7976931348623157e+308)"),
    # the bracket less 1, 0.5 * 1e300 / 1e-150, taken in logs: y is e**1381
    (analytic_solution, (0.5, 1e-300, 1, 1e300),
     "analytic_solution at q=0.5 overflows a double (scale=1e-300, x=1e+300)"),
    (build_distribution, (1.5, [-1e308], 1e308),
     "frequency argument at q=1.5 overflows a double (x[0]=-1e+308, shift=1e+308)"),
    (split_representation, (1e-07, [-1e94], -1.0, 1e308),
     "frequency argument at q=1e-07 overflows a double"
     " (x[0]=-1e+94, shift1=-1.0, shift2=1e+308)"),
    # n**(q-1) and n**(2-q) raised
    (lambda q, xs, shift: canonical_form(build_distribution(q, xs, shift)),
     (1e300, [0.39, 2.31], -3.87),
     "canonical_form at q=1e+300 overflows a double (total=2.0, shift=-3.87)"),
    (tsallis_correspondence, (-200.0, [1000]),
     "tsallis_correspondence at q=-200.0 overflows a double (n=1000)"),
    # each shift's bracket 1e300 is finite, their product is not
    (compose_shifts, (-1e200, 1e100, 1e100),
     "compose_shifts at q=-1e+200 overflows a double (shift1=1e+100, shift2=1e+100)"),
    # x_t / w_t after every partial sum and scale factor passed
    (scale_drift_expand, (1.5, [1.999999999, 1e300]),
     "drifted reading at q=1.5 overflows a double (step 1: shifts[1]=1e+300)"),
    # the width over a bracket 1 + (1-q)*log_offset near 0, and -2*beta
    (beta_from, (2.0, -1e308, 0.9999999999999999),
     "beta at q=2.0 overflows a double (ode_coeff=-1e+308, log_offset=0.9999999999999999)"),
    (QGaussianModel.from_beta, (1.0, 1.7976931348623157e308),
     "at q=1.0 overflows a double (beta=1.7976931348623157e+308)"),
    # -gamma * e_raw**2 + log_offset from a finite grid point
    (frequency_rescale, (0.0, 5.643803094122361e102, 0.0, [5.643803094122362e102]),
     "frequency argument at q=0.0 overflows a double (grid[0]=5.643803094122362e+102,"),
    # a bracket 1 + (1-q)*log_offset past the largest double, over which the
    # width would read 0
    (beta_from, (-1e308, -1.0, 1e308),
     "2 * (1 + (1-q)*log_offset) at q=-1e+308 overflows a double (log_offset=1e+308)"),
    # a finite bracket so large that the width underflows to 0
    (beta_from, (1.5, -1e-300, -1e100),
     "2 * (1 + (1-q)*log_offset) / -ode_coeff at q=1.5 overflows a double"
     " (ode_coeff=-1e-300, log_offset=-1e+100)"),
    # the pulled-out shift1's bracket 2.2e-16 carries the rescaled argument past it
    (split_representation, (0.5, [0.0, 1.0], -1.9999999999999996, 1e300),
     "frequency argument at q=0.5 overflows a double"
     " (x[0]=0.0, shift1=-1.9999999999999996, shift2=1e+300)"),
    # (x_end - x0) / step past the largest double: no step count
    (integrate_ode, (1.3, 0.0, 1.0, -1, 1.0, 5e-324),
     "integrate_ode step count at q=1.3 overflows a double (x0=0.0, x_end=1.0, step=5e-324)"),
    (integrate_ode, (1.0, -1e308, 1.0, -1, 1e308, 1.0),
     "integrate_ode step count at q=1.0 overflows a double (x0=-1e+308, x_end=1e+308, step=1.0)"),
    # a growing value y0 * e**x, named by analytic_solution at x - x0
    (integrate_ode, (1.0, 0.0, 1e308, 1, 1.0, 0.5),
     "analytic_solution at q=1.0 overflows a double (scale=1e+308, x=1.0)"),
    # a grid of 1e18 points, which no allocation holds (6.9 EiB)
    (integrate_ode, (1.3, 0.0, 1.0, -1, 1.0, 1e-18),
     "integrate_ode step count at q=1.3 overflows a double (x0=0.0, x_end=1.0, step=1e-18)"),
    # a pulled-out shift's bracket 1 + (1-q)*shift past the largest double,
    # over which every rescaled argument would read 0
    (split_representation, (-1.0, [0.0, 1e308], 1e308, 1e308),
     "pulled-out bracket 1 + (1-q)*shift at q=-1.0 overflows a double"
     " (shift1=1e+308, shift2=1e+308)"),
    (split_representation, (3.0, [0.0, 1e308], -1e308, -1e308),
     "pulled-out bracket 1 + (1-q)*shift at q=3.0 overflows a double"
     " (shift1=-1e+308, shift2=-1e+308)"),
    # a term past the largest double names its factor
    (q_log_sum, (-3.0, [2.0, 1e200]), "q_log_sum at q=-3.0 overflows a double (factors[1])"),
])
def test_scalar_overflow_names_index_and_argument(fn, args, named):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RangeOverflow) as info:
            fn(*args)
    assert named in str(info.value)
    assert info.value.q == args[0] and info.value.where in str(info.value)
    assert isinstance(info.value, OverflowError)


# a scale factor that underflows to 0 is no positive scale: frequency_rescale
# divided by it, and compose_shifts returned it; split_representation's
# frequencies all underflow as those of build_distribution(q, xs, shift1 + shift2)
# do; analytic_solution names a value under the smallest double, taken in
# logs, and integrate_ode its point through it
@pytest.mark.parametrize("fn, args, named", [
    (analytic_solution, (1.0, 1e-300, -1, 60.0),
     "analytic_solution at q=1.0 (scale=1e-300, x=60.0)"),
    # y**(1-q) = scale**(1-q) + (1-q)*direction*x is 5e18, and y 1e-374
    (analytic_solution, (1.05, 1e280, -1, 1e20),
     "analytic_solution at q=1.05 (scale=1e+280, x=1e+20)"),
    (frequency_rescale, (1.7, 1.0, -1e300, [0.0]), "scale"),
    (compose_shifts, (1.5, -4e81, -4e81), "y_scale"),
    (split_representation, (1.15, [-2.52, 0.0], -1e122, -2.18), "total"),
    (integrate_ode, (1.0, 0.0, 1e-300, -1, 100.0, 50.0),
     "analytic_solution at q=1.0 (scale=1e-300, x=100.0)"),
    # exp_q(log_q y0 - x0) underflowed to 0
    (rescale_factor, (1.3, 1e308, 1.0), "rescale_factor at q=1.3 (x0=1e+308, y0=1.0)"),
    (rescale_factor, (1.0, 1000.0, 1.0), "rescale_factor at q=1.0 (x0=1000.0, y0=1.0)"),
])
def test_underflowed_scale_names_the_factor(fn, args, named):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonPositiveArgument) as info:
            fn(*args)
    assert info.value.name == named and info.value.value == 0.0


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

    def test_lift_past_the_largest_double(self):
        # t = (1-q) ln(y/x) drawn in [700, 720 + ln|1-q|]: past t = 709.78 the
        # lift expm1(t) overflows, and log_q(y/x) only ln|1-q| later
        rng = np.random.default_rng(34)
        q = np.where(rng.random(500) < 0.5, rng.uniform(-10.0, 10.0, 500), 1.0 - rng.choice(
            [-1.0, 1.0], 500) * 10.0 ** rng.uniform(0.0, 5.0, 500))
        t = rng.uniform(700.0, 720.0 + np.log(np.abs(1.0 - q)))
        ln_x = rng.uniform(-700.0, 700.0, 500)
        ln_y = ln_x + t / (1.0 - q)
        kept = (ln_y > -700.0) & (ln_y < 709.0)
        returned = 0
        for qi, yi, xi in zip(q[kept].tolist(), np.exp(ln_y[kept]).tolist(),
                              np.exp(ln_x[kept]).tolist()):
            with mpmath.workdps(60):
                exact = mp60.log_q(qi, mpmath.mpf(yi) / xi)
            if abs(exact) > sys.float_info.max * (1.0 + 1e-12):
                with pytest.raises(RangeOverflow):
                    q_log_of_ratio(qi, yi, xi)
            elif abs(exact) < sys.float_info.max * (1.0 - 1e-12):
                assert abs(q_log_of_ratio(qi, yi, xi) - exact) <= 1e-12 * abs(exact)
                returned += 1
        assert returned > 100


# Each public primitive checks q, then x, then y (q_log_of_ratio: y, then
# x; analytic_solution: direction, then scale, then x, in its q_exp call or
# apart), converting each argument only when its check comes, so
# the first bad argument decides the error; the messages are those of the
# separate check_index/_check_positive calls the checks replaced
NAN, INF = math.nan, math.inf
NOT_NONE = "float() argument must be a string or a real number, not 'NoneType'"
NOT_A = "could not convert string to float: 'a'"


@pytest.mark.parametrize("fn, args, error, message", [
    (q_log, (NAN, 2.0), ValueError, "deformation index must be finite, got nan"),
    (q_log, (-INF, 2.0), ValueError, "deformation index must be finite, got -inf"),
    (q_log, (1.5, NAN), NonPositiveArgument, "y must be a positive finite real, got nan"),
    (q_log, (1.5, INF), NonPositiveArgument, "y must be a positive finite real, got inf"),
    (q_log, (1.5, 0.0), NonPositiveArgument, "y must be a positive finite real, got 0.0"),
    (q_log, (1.5, -1.0), NonPositiveArgument, "y must be a positive finite real, got -1.0"),
    (q_log, (None, 2.0), TypeError, NOT_NONE),
    (q_log, (1.5, "a"), ValueError, NOT_A),
    (q_log, (INF, -1.0), ValueError, "deformation index must be finite, got inf"),
    (q_exp, (INF, 0.5), ValueError, "deformation index must be finite, got inf"),
    (q_exp, (1.5, NAN), ValueError, "argument must be finite, got nan"),
    (q_exp, (1.5, -INF), ValueError, "argument must be finite, got -inf"),
    (q_exp, (1.5, None), TypeError, NOT_NONE),
    (q_exp, ("a", NAN), ValueError, NOT_A),
    (q_exp, (1.5, 4.0), DomainViolation,
     "exp_q argument outside domain: constraint value -1.0 <= 0"),
    (q_product, (NAN, 2.0, 3.0), ValueError, "deformation index must be finite, got nan"),
    (q_product, (1.5, INF, 3.0), NonPositiveArgument, "x must be a positive finite real, got inf"),
    (q_product, (1.5, 2.0, 0.0), NonPositiveArgument, "y must be a positive finite real, got 0.0"),
    (q_product, (1.5, -1.0, "a"), NonPositiveArgument,
     "x must be a positive finite real, got -1.0"),
    (q_product, (NAN, -1.0, "a"), ValueError, "deformation index must be finite, got nan"),
    (q_product, (1.5, None, -1.0), TypeError, NOT_NONE),
    (q_product, (1.5, 2.0, "a"), ValueError, NOT_A),
    (q_ratio, (-INF, 2.0, 3.0), ValueError, "deformation index must be finite, got -inf"),
    (q_ratio, (1.5, "a", -1.0), ValueError, NOT_A),
    (q_ratio, (1.0, 0.0, NAN), NonPositiveArgument, "x must be a positive finite real, got 0.0"),
    (q_ratio, (1.5, 2.0, -INF), NonPositiveArgument, "y must be a positive finite real, got -inf"),
    (q_ratio, (1.5, 2.0, None), TypeError, NOT_NONE),
    (q_ratio, (0.0, 2.0, 3.0), DomainViolation,
     "q_ratio bracket x^(1-q) - y^(1-q) + 1: constraint value 0.0 <= 0"),
    (q_log_of_ratio, (INF, 2.0, 3.0), ValueError, "deformation index must be finite, got inf"),
    (q_log_of_ratio, (1.5, NAN, 3.0), NonPositiveArgument,
     "y must be a positive finite real, got nan"),
    (q_log_of_ratio, (1.5, 2.0, 0.0), NonPositiveArgument,
     "x must be a positive finite real, got 0.0"),
    (q_log_of_ratio, (1.5, -1.0, "a"), NonPositiveArgument,
     "y must be a positive finite real, got -1.0"),
    (q_log_of_ratio, (None, -1.0, NAN), TypeError, NOT_NONE),
    (q_log_of_ratio, (1.5, 2.0, "a"), ValueError, NOT_A),
    (analytic_solution, (NAN, -1.0, 1, 0.0), ValueError,
     "deformation index must be finite, got nan"),
    (analytic_solution, (1.5, 0.0, 2, 0.0), ValueError, "direction must be +1 or -1, got 2"),
    (analytic_solution, (1.5, 2.0, None, NAN), TypeError, NOT_NONE),
    (analytic_solution, (1.5, INF, -1, 0.0), NonPositiveArgument,
     "scale must be a positive finite real, got inf"),
    (analytic_solution, (1.5, "a", 1, NAN), ValueError, NOT_A),
    (analytic_solution, (1.5, 2.0, 1, NAN), ValueError, "x must be finite, got nan"),
    (analytic_solution, (1.5, 2.0, -1, INF), ValueError, "x must be finite, got inf"),
    (analytic_solution, (1.5, 2.0, 1, None), TypeError, NOT_NONE),
    (analytic_solution, (1.5, 1.0, 1, 3.0), DomainViolation,
     "exp_q argument outside domain: constraint value -0.5 <= 0"),
    # scale**(1-q) underflowed to 0 is no error of its own: x is named
    (analytic_solution, (1001.0, 1e300, 1, NAN), ValueError, "x must be finite, got nan"),
    # scale**(1-q) past the largest double: the bracket less 1 is formed in
    # logs, and a non-finite x is named itself
    (analytic_solution, (-0.001, 1.79e308, -1, -1.79e308), RangeOverflow,
     "analytic_solution at q=-0.001 overflows a double (scale=1.79e+308, x=-1.79e+308)"),
    (analytic_solution, (-1000.0, 1e300, 1, NAN), ValueError, "x must be finite, got nan"),
    (shift_expansion, (None, 1.0), TypeError, NOT_NONE),
    (shift_expansion, (NAN, "a"), ValueError, "deformation index must be finite, got nan"),
    (shift_expansion, (1.5, NAN), ValueError, "shift must be finite, got nan"),
    (shift_expansion, (1.5, -INF), ValueError, "shift must be finite, got -inf"),
    (shift_expansion, (1.5, 4.0), DomainViolation,
     "exp_q argument outside domain: constraint value -1.0 <= 0"),
    (shift_expansion, (1.0, -1000.0), NonPositiveArgument,
     "y_scale must be a positive finite real, got 0.0"),
    # the bracket 1 + (1-q)*d*x/scale**(1-q) is -0.39698386192321751 in 60 digits
    (analytic_solution, (-9.0, 8e30, -1, 1.5e308), DomainViolation,
     "exp_q argument outside domain: constraint value -0.3969838619232171 <= 0"),
    # raises that no other test reaches
    (integrate_ode, (1.3, 0, 1, 2, 1, 0.1), ValueError, "direction must be +1 or -1, got 2"),
    (integrate_ode, (1.3, 0, 1, -1, 1, 0.0), ValueError, "step must be positive, got 0.0"),
    (integrate_ode, (1.3, 1, 1, -1, 0, 0.1), ValueError, "x_end must exceed x0"),
    (q_product_fold, (1.3, []), ValueError, "factors must be non-empty"),
    (q_stirling, (NAN, 3), ValueError, "deformation index must be finite, got nan"),
    # the reference exp_q(-grid**2) leaves the domain at grid point 3
    (frequency_rescale, (0.5, 1.0, 0.0, [3.0]), DomainViolation,
     "exp_q argument outside domain (element 0): constraint value -3.5 <= 0"),
    (tsallis_entropy, (1.0, [1e308, 1e308]), ValueError, "probabilities must sum to 1 (got inf)"),
    # the bracket 1 + (1-q)*x/scale**(1-q) is below -1e300000: scale**(1-q) underflows
    (analytic_solution, (1001.0, 1e300, 1, 1.0), DomainViolation,
     "exp_q argument outside domain: constraint value -inf <= 0"),
    (q_log_sum, (1.5, [2.0, -1.0, 0.0]), NonPositiveArgument,
     "factors[1] must be a positive finite real, got -1.0"),
])
def test_bad_arguments_keep_their_error(fn, args, error, message):
    with pytest.raises(Exception) as info:
        fn(*args)
    assert type(info.value) is error
    assert str(info.value) == message


@pytest.mark.parametrize("fn, args, message", [
    # each was reported as exp_q's argument (for rescale_factor as -inf, a
    # value never passed), as the offset bracket or as twice it
    (rescale_factor, (1.3, INF, 1.0), "x0 must be finite, got inf"),
    (shift_expansion, (1.3, NAN), "shift must be finite, got nan"),
    (compose_shifts, (1.3, NAN, 0.1), "shift1 must be finite, got nan"),
    (compose_shifts, (1.3, 0.1, NAN), "shift2 must be finite, got nan"),
    (frequency_rescale, (1.3, 1.0, NAN, [0.0, 1.0]), "log_offset must be finite, got nan"),
    # a DomainViolation of the offset bracket, and a RangeOverflow of twice it
    (beta_from, (1.3, -1.0, NAN), "log_offset must be finite, got nan"),
    (QGaussianModel, (1.3, -1.0, NAN), "log_offset must be finite, got nan"),
    (beta_from, (0.5, -1.0, INF), "log_offset must be finite, got inf"),
    (lambda q, e: q_gaussian_pdf(QGaussianModel(q, -1.0, 0.0), e), (1.3, INF),
     "e must be finite, got inf"),
])
def test_non_finite_argument_is_named(fn, args, message):
    with pytest.raises(Exception) as info:
        fn(*args)
    assert type(info.value) is ValueError
    assert str(info.value) == message
    with pytest.raises(ValueError, match="^deformation index must be finite, got nan$"):
        fn(NAN, *args[1:])  # q is checked first


@pytest.mark.parametrize("fn, args", [
    (q_log, (np.float64(1.5), np.float32(2.0))),
    (q_log, (True, np.int64(3))),
    (q_exp, (np.float64(0.5), np.float64(1.25))),
    (q_exp, (np.int64(2), False)),
    (q_product, (np.float64(1.3), True, np.float64(2.0))),
    (q_ratio, (np.float32(0.5), np.float64(3.0), True)),
    (q_log_of_ratio, (np.float64(1.7), np.int64(4), np.float64(0.5))),
])
def test_numpy_scalars_and_bools_are_accepted(fn, args):
    value = fn(*args)
    assert type(value) is float
    assert value == fn(*(float(a) for a in args))


def _tsallis_through_q_log(q, p):
    """tsallis_entropy's terms taken through the public q_log, as it first
    summed them."""
    values = [float(v) for v in p]
    residual = math.fsum([*values, -1.0])
    power, index = (q, q) if q <= 1.0 else (1.0, 2.0 - q)
    value = -math.fsum([v ** power * q_log(index, v) for v in values if v > 0.0])
    if abs(q * residual) < 2.0 ** -26:
        value = value * (1.0 - q * residual) + residual
    return max(0.0, value)


def _ratio_through_q_log(q, y, x):
    """q_log of the quotient, with ln(y/x) as log1p((y - x)/x) for a
    quotient in [1/2, 2]."""
    if not 0.5 <= y / x <= 2.0:
        return q_log(q, y / x)
    ln_ratio = math.log1p((y - x) / x)
    return ln_ratio if q == 1.0 else math.expm1((1.0 - q) * ln_ratio) / (1.0 - q)


ROUTING_INDICES = [float(q) for q in np.linspace(-3.0, 6.0, 37)] + [
    1.0, 2.0, 1.0 - 1e-9, 1.0 + 1e-9]


@pytest.mark.parametrize("q", ROUTING_INDICES)
def test_kernel_routing_is_bit_identical_to_q_log(q):
    rng = np.random.default_rng(11)
    for k in range(1, 12):
        for _ in range(4):
            u = rng.uniform(0.0, 1.0, size=k) ** 3
            u[rng.random(k) < 0.1] = 0.0
            u[0] += 1e-3  # not all zero
            p = (u / u.sum()).tolist()
            assert tsallis_entropy(q, p).hex() == _tsallis_through_q_log(q, p).hex()
    y, x = 10.0 ** rng.uniform(-1.5, 1.5, size=(2, 200))
    for yi, xi in zip(y.tolist(), x.tolist()):
        assert q_log_of_ratio(q, yi, xi).hex() == _ratio_through_q_log(q, yi, xi).hex()


def round_trip_residual(q, x):
    """|log_q(exp_q(x)) - x|, expected below 1e-12 * max(1, |x|) in the domain."""
    return abs(q_log(q, q_exp(q, x)) - x)


class TestRoundTrip:
    def test_examples(self):
        assert round_trip_residual(1.7, 0.0) == 0.0
        assert round_trip_residual(0.5, 6.0) < 1e-12
        assert round_trip_residual(1.0, 10.0) < 1e-12 * 10.0

    def test_seeded_sweep(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            q = float(rng.uniform(0.2, 2.8))
            x = float(rng.uniform(-3.0, 3.0))
            if q_exp_bracket(q, x) <= 1e-3:
                continue
            assert round_trip_residual(q, x) < 1e-12 * max(1.0, abs(x))
            y = float(rng.uniform(0.05, 20.0))
            assert q_exp(q, q_log(q, y)) == pytest.approx(y, rel=1e-12)


@given(q=st.floats(0.2, 2.8), x=st.floats(-3.0, 3.0))
@settings(max_examples=300, deadline=None)
def test_inverse_pair_property(q, x):
    if q_exp_bracket(q, x) <= 1e-3:
        return
    assert round_trip_residual(q, x) < 1e-12 * max(1.0, abs(x))


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


def _elementwise(fn, q, values):
    """fn(q, v) for each value, or (error class, index) of the first that raises."""
    results = []
    for i, v in enumerate(values):
        try:
            results.append(fn(q, v))
        except (DomainViolation, NonPositiveArgument, RangeOverflow) as err:
            return type(err), i
    return results


def _twin_agrees(twin, q, values, expected) -> bool:
    """The array twin returns ``expected`` (values, within 1e-14 times
    max(1, |ln v|) relative: numpy's exp and log differ from libm's by an ulp
    or so, which the exponent ln v amplifies) or raises its error class,
    naming its index."""
    try:
        got = twin(q, values).tolist()
    except (DomainViolation, NonPositiveArgument, RangeOverflow) as err:
        if not isinstance(expected, tuple):
            return False
        cls, i = expected
        return type(err) is cls and (f"(element {i})" in str(err)
                                     or str(err).startswith(f"y[{i}]"))
    return not isinstance(expected, tuple) and all(
        g == e or abs(g - e) <= 1e-14 * max(1.0, abs(math.log(abs(e)))) * abs(e)
        for g, e in zip(got, expected))


class TestWideArrayParity:
    """Each array twin gives its scalar's value or error on draws at both ends
    of the double range: ``q_exp`` and ``q_log`` hold the one range policy."""

    def test_q_exp_array_is_q_exp_elementwise(self, wide_draws):
        failed = [(q, a, b) for q, a, b in wide_draws if not _twin_agrees(
            _q_exp_array, q, [a, b], _elementwise(q_exp, q, (a, b)))]
        assert (len(failed), failed[:3]) == (0, [])

    def test_q_log_array_is_q_log_elementwise(self, wide_draws):
        failed = [(q, a, b) for q, a, b in wide_draws if not _twin_agrees(
            _q_log_array, q, [a, b], _elementwise(q_log, q, (a, b)))]
        assert (len(failed), failed[:3]) == (0, [])
