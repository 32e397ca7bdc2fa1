"""Power-law dynamics: closed form, RK4 cross-check, shift/rescale structure."""

import math
import sys
import warnings

import mpmath
import numpy as np
import pytest

from qdeform import (
    DomainViolation,
    NonPositiveArgument,
    QDeformError,
    analytic_solution,
    RangeOverflow,
    compose_shifts,
    fig2_data,
    frequency_rescale,
    integrate_ode,
    q_exp,
    q_exp_bracket,
    q_log,
    rescale_factor,
    shift_expansion,
)
from qdeform.dynamics import FIG2_GRID, Trajectory
from qdeform.verify import _rk4

# 40-digit evaluations
QEXP_13_MINUS1 = 0.4170506723141460936064   # (1 + 0.3)**(-1/0.3)
QLOG_13_10 = 1.662709221242425716661        # (10**-0.3 - 1)/(-0.3)
QLOG_13_20 = 1.976364894876985398222


class TestRescaleFactor:
    def test_unit_initial_condition(self):
        assert rescale_factor(1.3, 0.0, 1.0) == 1.0

    def test_classical(self):
        for y0 in (0.5, 2.0, 9.0):
            assert rescale_factor(1.0, 2.0, y0) == pytest.approx(
                y0 * math.exp(-2.0), rel=1e-14)

    def test_square_case(self):
        # log_{0.5}(16) = 6, exp_{0.5}(5) = 3.5**2
        assert rescale_factor(0.5, 1.0, 16.0) == pytest.approx(12.25, rel=1e-13)

    def test_either_direction_through_a_point(self):
        # rescale_factor(q, direction * x0, y0) puts the closed form through (x0, y0)
        for q in (0.5, 1.0, 1.3, 2.0):
            for d in (1, -1):
                scale = rescale_factor(q, d * 0.3, 1.4)
                assert analytic_solution(q, scale, d, 0.3) == pytest.approx(1.4, rel=1e-14)

    def test_no_positive_factor(self):
        # log_{0.5}(y0) - x0 far below the domain edge -2
        with pytest.raises(DomainViolation):
            rescale_factor(0.5, 10.0, 1.0)


class TestAnalyticSolution:
    def test_fig2_base_curve(self):
        assert analytic_solution(1.3, 1.0, -1, 1.0) == pytest.approx(
            QEXP_13_MINUS1, rel=1e-14)

    def test_starts_at_scale(self):
        for q, scale in ((0.5, 3.0), (1.0, 2.0), (2.5, 0.7)):
            for direction in (1, -1):
                assert analytic_solution(q, scale, direction, 0.0) == \
                    pytest.approx(scale, rel=1e-15)

    def test_classical(self):
        assert analytic_solution(1.0, 2.0, 1, 1.0) == pytest.approx(
            2.0 * math.e, rel=1e-14)

    def test_solves_equation_by_finite_difference(self):
        h = 1e-6
        for q, scale, direction in ((0.7, 2.0, 1), (1.6, 5.0, -1)):
            for x in (0.0, 0.4, 1.1):
                y = analytic_solution(q, scale, direction, x)
                slope = (analytic_solution(q, scale, direction, x + h)
                         - analytic_solution(q, scale, direction, x - h)) / (2 * h)
                assert slope == pytest.approx(direction * y ** q, rel=1e-8)

    def test_is_its_closed_form_bit_for_bit(self):
        # one scale**(1-q), one division and one q_exp, in that order
        rng = np.random.default_rng(27)
        for _ in range(2000):
            q = 1.0 if rng.random() < 0.1 else float(rng.uniform(-2.0, 4.0))
            s = float(10.0 ** rng.uniform(-30.0, 30.0))
            d = float(rng.choice([1.0, -1.0]))
            x = float(rng.uniform(-5.0, 5.0)) * s ** (1.0 - q)
            try:
                expected = s * q_exp(q, d * x / s ** (1.0 - q))
            except DomainViolation:
                continue
            assert analytic_solution(q, s, d, x).hex() == expected.hex()

    def test_scale_power_past_the_largest_double(self):
        # scale**(1-q) overflows and the bracket less 1 is formed from its
        # square root, or in logs where that overflows too: at x = 0 the value
        # is the scale, and elsewhere it is the closed form in 60 digits where
        # the bracket is at least 2**-10
        assert analytic_solution(-1000.0, 1e300, -1, 0.0) == 1e300
        assert analytic_solution(-1000.0, 1e300, 1, 0.0) == 1e300

        def passes_largest_double(s, power):
            try:
                s ** power
            except OverflowError:
                return True
            return False

        rng = np.random.default_rng(28)
        done = 0
        with mpmath.workdps(60):
            while done < 300:
                one_minus_q = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(
                    0.01, rng.choice([3.0, 300.0])))
                # scale**(1-q) between e**709.79, past the largest double, and
                # 1e5 |1-q| times that, or e**1500 |1-q| times that, where
                # its square root passes the largest double too
                log_power = 709.79 + rng.uniform(
                    0.0, math.log(abs(one_minus_q)) + rng.choice([11.5, 1500.0]))
                q = 1.0 - one_minus_q
                try:
                    s = math.exp(log_power / one_minus_q)
                except OverflowError:
                    continue
                if not 0.0 < s < math.inf or not passes_largest_double(s, 1.0 - q):
                    continue
                d = float(rng.choice([1.0, -1.0]))
                power = mpmath.mpf(s) ** (1 - mpmath.mpf(q))
                if rng.random() < 0.5:  # aimed at a bracket in [2**-10, 1]
                    aim = (2.0 ** rng.uniform(-10.0, 0.0) - 1) * power / ((1 - mpmath.mpf(q)) * d)
                    if abs(aim) > sys.float_info.max:
                        continue
                    x = float(aim)
                else:
                    x = float(rng.choice([-1.0, 1.0]) * rng.choice(
                        [0.0, 1.7976931348623157e308 * rng.uniform(0.5, 1.0),
                         10.0 ** rng.uniform(-300.0, 308.0)]))
                bracket = 1 + (1 - mpmath.mpf(q)) * d * x / power
                if abs(bracket) < 2.0 ** -10:
                    continue
                done += 1
                if bracket < 0:
                    with pytest.raises(DomainViolation):
                        analytic_solution(q, s, d, x)
                    continue
                exact = s * bracket ** (1 / (1 - mpmath.mpf(q)))
                if exact > sys.float_info.max:
                    with pytest.raises(RangeOverflow):
                        analytic_solution(q, s, d, x)
                    continue
                assert abs(analytic_solution(q, s, d, x) - exact) <= 1e-12 * exact


class TestQLogLine:
    # log_q y = direction * x + log_q(scale): the intercepts of fig. 2
    def test_intercepts(self):
        assert q_log(1.3, 10.0) == pytest.approx(QLOG_13_10, rel=1e-14)
        assert q_log(1.3, 20.0) == pytest.approx(QLOG_13_20, rel=1e-14)


def _stage_rk4(q, x0, y0, d, x_end, step):
    """verify's RK4 oracle in an earlier form, each stage a call of one stage
    function, kept as the reference for the written-out loop."""
    def rhs(y):
        return d * y ** q

    n_steps = max(1, math.ceil((x_end - x0) / step))
    h = (x_end - x0) / n_steps
    xs, ys, y = [x0], [y0], y0
    for i in range(n_steps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        xs.append(x0 + (i + 1) * h)
        ys.append(y)
    return np.asarray(xs), np.asarray(ys)


# the benchmark's two branches at 5e4 steps
BENCH_ROWS = [pytest.param((1.35, 0.0, 1.2, -1, 5.0, 1e-4), id="bench-decay"),
              pytest.param((0.7, 0.0, 0.8, 1, 5.0, 1e-4), id="bench-growth")]


class TestWrittenOutStages:
    @pytest.mark.parametrize("args", [
        *(pytest.param((q, 0.3, 1.4, direction, 0.8, 5e-4), id=f"{direction}-{q}")
          for direction in (1, -1) for q in (0.5, 1.0, 1.3, 2.0)),  # 1000 steps
        *BENCH_ROWS,
    ])
    def test_trajectory_bits_match_stage_function_form(self, args):
        xs, ys = _rk4(*args)
        ref_xs, ref_ys = _stage_rk4(*args)
        _, x0, _, _, x_end, step = args
        assert xs.size == math.ceil((x_end - x0) / step) + 1
        assert xs.tobytes() == ref_xs.tobytes() and ys.tobytes() == ref_ys.tobytes()

    def test_guard_fires_at_first_and_last_step(self):
        # integrate_ode's guard is exp_q's bracket: not positive at the first
        # grid point past x0 (x = 2.5), and 0 at the last one (x = 1)
        with pytest.raises(DomainViolation) as first:
            integrate_ode(0.5, 0.0, 1.0, -1, 5.0, 2.5)
        with pytest.raises(DomainViolation) as last:
            integrate_ode(2.0, 0.0, 1.0, 1, 1.0, 1e-3)
        assert (first.value.index, first.value.constraint) == (1, -0.25)
        assert (last.value.index, last.value.constraint) == (1000, 0.0)


def _exact_trajectory(q, x0, y0, d, xs):
    """y0 * exp_q(d * (x - x0) / y0**(1-q)) at each double x, in 60 digits."""
    with mpmath.workdps(60):
        q, x0, y0 = mpmath.mpf(q), mpmath.mpf(x0), mpmath.mpf(y0)
        if q == 1:
            return [y0 * mpmath.exp(d * (mpmath.mpf(x) - x0)) for x in xs]
        b0 = y0 ** (1 - q)
        return [y0 * (1 + (1 - q) * d * (mpmath.mpf(x) - x0) / b0) ** (1 / (1 - q)) for x in xs]


def _sweep_rows(count, seed):
    """In-domain calls: q in [-3, 3] (a tenth exactly 1), both directions, y0
    log-uniform in [1e-3, 1e3], 1-40 steps.  At the end the exp_q argument u
    is 1e-3 to 1e17 in size, the bracket b at least 0.02, the condition
    |u| / b at most 50 and |ln(y / y0)| at most 100."""
    rng = np.random.default_rng(seed)
    rows = []
    while len(rows) < count:
        q = 1.0 if rng.random() < 0.1 else float(rng.uniform(-3.0, 3.0))
        d = float(rng.choice([1.0, -1.0]))
        y0 = float(10.0 ** rng.uniform(-3.0, 3.0))
        x0 = float(rng.uniform(-500.0, 500.0))
        u = d * float(10.0 ** rng.uniform(-3.0, 17.0))
        bracket = 1.0 + (1.0 - q) * u
        if bracket < 0.02 or abs(u) > 50.0 * bracket or abs(
                u if q == 1.0 else math.log(bracket) / (1.0 - q)) > 100.0:
            continue
        span, n = abs(u) * y0 ** (1.0 - q), int(rng.integers(1, 41))
        if span / n > 1e-12 * max(1.0, abs(x0)):  # abscissas that do not repeat
            rows.append((q, x0, y0, d, x0 + span, span / n))
    return rows


class TestIntegrateODE:
    @pytest.mark.parametrize("rows", [
        pytest.param(_sweep_rows(300, 30), id="sweep"),
        pytest.param([
            # RK4 stepped far past the local scale y**(1-q) here: 3.9e9 off
            (-2.300624736947255, -318.1587079634078, 1.9308452987847562e-05, 1,
             -309.37188990245335, 0.07202309886028238),
            # rows where an RK4 stage went negative (the first two) or one
            # step of 3.4e289 left y past 1e12 (|1-q| ~ 4e16)
            (2.0, 0.0, 1e3, -1, 1.0, 1e-2), (0.9, 0.0, 1.0, -1, 1.9, 1.9),
            (-4.3196988666225544e16, -3.4392199811309485e289, 1.0, 1, 0.0, 1e300),
        ], id="witnesses"),
    ])
    def test_every_point_within_1e13_of_60_digits(self, rows):
        for q, x0, y0, d, x_end, step in rows:
            traj = integrate_ode(q, x0, y0, d, x_end, step)
            with mpmath.workdps(60):
                exact = _exact_trajectory(q, x0, y0, d, traj.xs.tolist())
                worst = max(abs(y - e) / e for y, e in zip(traj.ys.tolist(), exact))
            assert worst <= 1e-13, (q, x0, y0, d, x_end, step)

    @pytest.mark.parametrize("args", BENCH_ROWS)
    def test_agrees_with_the_rk4_oracle(self, args):
        traj = integrate_ode(*args)
        xs, ys = _rk4(*args)
        assert traj.xs.tobytes() == xs.tobytes()
        assert np.max(np.abs(traj.ys - ys) / ys) < 1e-8

    def test_classical_exponential(self):
        traj = integrate_ode(1.0, 0.0, 1.0, 1, 1.0, 1e-3)
        assert traj.ys[-1] == pytest.approx(math.e, abs=1e-9)

    def test_decay_matches_closed_form(self):
        traj = integrate_ode(1.3, 0.0, 1.0, -1, 1.0, 1e-3)
        assert traj.ys[-1] == pytest.approx(QEXP_13_MINUS1, abs=1e-6)

    def test_hyperbolic_growth(self):
        # q=2 from (0,1): y = 1/(1-x)
        traj = integrate_ode(2.0, 0.0, 1.0, 1, 0.5, 1e-3)
        assert traj.ys[-1] == pytest.approx(2.0, abs=1e-6)

    def test_blowup_detected_before_singularity(self):
        # q=2 growing branch from (0, 1) is singular at x = 1, grid index 1000
        with pytest.raises(DomainViolation) as info:
            integrate_ode(2.0, 0.0, 1.0, 1, 2.0, 1e-3)
        assert (info.value.index, info.value.constraint) == (1000, 0.0)

    def test_support_edge_detected(self):
        # q=0.5 decaying branch hits y=0 at x = 2, grid index 2000
        with pytest.raises(DomainViolation) as info:
            integrate_ode(0.5, 0.0, 1.0, -1, 3.0, 1e-3)
        assert (info.value.index, info.value.constraint) == (2000, 0.0)

    def test_trajectory_structure(self):
        traj = integrate_ode(1.5, 0.0, 2.0, -1, 0.3, 1e-2)
        assert np.all(np.diff(traj.xs) > 0)
        assert np.all(traj.ys > 0)
        assert traj.xs[0] == 0.0 and traj.xs[-1] == pytest.approx(0.3)

    def test_returns_past_the_old_cap(self):
        # e**30 > 1e12: y has no cap
        traj = integrate_ode(1.0, 0.0, 1.0, 1, 30.0, 1e-2)
        assert traj.ys[-1] == pytest.approx(math.exp(30.0), rel=1e-13)

    @pytest.mark.parametrize("args, error, message", [
        # exp(1000) itself, at grid index 2
        ((1.0, 0.0, 1.0, 1, 1000.0, 500.0), RangeOverflow,
         "analytic_solution at q=1.0 overflows a double (scale=1.0, x=1000.0)"),
        # e**4.6e306 at the first grid point past x0
        ((1.0, 8.795874874880185e+307, 1.0, 1, 1.7976931348623157e+308, 4.817955637403735e+306),
         RangeOverflow,
         "analytic_solution at q=1.0 overflows a double (scale=1.0, x=4.590528236871492e+306)"),
        # 1e-300 * exp(-60) underflows
        ((1.0, 0.0, 1e-300, -1, 60.0, 10.0), NonPositiveArgument,
         "analytic_solution at q=1.0 (scale=1e-300, x=60.0) must be a positive finite real,"
         " got 0.0"),
    ])
    def test_out_of_range_values_name_their_point(self, args, error, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error) as info:
                integrate_ode(*args)
        assert str(info.value) == message

    def test_no_y_max_option(self):
        with pytest.raises(TypeError):
            integrate_ode(1.0, 0.0, 1.0, 1, 1.0, 1e-3, y_max=10.0)

    def test_rejects_nonpositive_y0(self):
        with pytest.raises(NonPositiveArgument, match="y0"):
            integrate_ode(1.3, 0.0, 0.0, -1, 1.0, 1e-3)

    @pytest.mark.parametrize("x0, x_end, name", [
        (0.0, math.inf, "x_end"),
        (0.0, math.nan, "x_end"),
        (math.nan, 1.0, "x0"),
        (-math.inf, 1.0, "x0"),
    ])
    def test_rejects_non_finite_endpoints(self, x0, x_end, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            integrate_ode(1.3, x0, 1.0, -1, x_end, 1e-3)

    def test_rejects_step_below_double_spacing(self):
        # x0 + i*h rounds to repeated abscissas near 1e10
        with pytest.raises(ValueError,
                           match=r"^step must exceed the spacing of doubles .*x0=10000000000\.0"):
            integrate_ode(1.3, 1e10, 1.0, 1, 1e10 + 1e-5, 1e-6)

    @pytest.mark.parametrize("args", [
        # starts whose bracket 1 + (1-q)(log_q y0 - d*x0), taken at x = 0, is not positive
        (1.3, 5.0, 1.0, -1, 6.0, 0.01), (2.0, 2.0, 1.0, -1, 3.0, 1e-3),
        # and one where exp(-d*x0) passes the largest double
        (1.0, 1000.0, 1.0, -1, 1001.0, 0.1),
    ])
    def test_autonomous_start_matches_closed_form(self, args):
        q, x0, y0, d, _, _ = args
        traj = integrate_ode(*args)
        expected = [analytic_solution(q, y0, d, x - x0) for x in traj.xs]
        assert np.max(np.abs(traj.ys - expected)) < 1e-6

    def test_nonzero_start(self):
        traj = integrate_ode(1.3, 1.0, 0.8, -1, 2.0, 1e-3)
        scale = q_exp(1.3, q_log(1.3, 0.8) + 1.0)
        assert traj.ys[-1] == pytest.approx(
            analytic_solution(1.3, scale, -1, 2.0), rel=1e-9)


def _last_point(q, scale, d, x):
    """integrate_ode's one-step value at x: its grid runs from 0 to |x|, in
    the direction of d * x."""
    return float(integrate_ode(q, 0.0, scale, math.copysign(1.0, x) * d, abs(x), abs(x)).ys[-1])


class TestOneSolutionPath:
    """analytic_solution and integrate_ode, its array form, share one range
    policy: where scale**(1-q), exp_q's factor or the value is not a normal
    double, both take the value in logs."""

    @pytest.mark.parametrize("q, scale, d, x", [
        # exp_q's factor (1.2e-347) underflows where the value, 5.9e-68, does not
        (1.0542353986820556, 5.120839936013163e279, -1, 81636.3040680824),
        # (1-q)*x past the largest double, where the value is 1 - 2e-286
        (5.781601218438114e288, 1.0, -1, 1.2942218372025844e226),
        # scale**(1-q) = 1e-320 is subnormal, and the exp_q argument past the largest double
        (-1.0, 1e-160, 1, 0.5),
        # scale**(1-q) subnormal, with too few digits for 1e-12
        (-0.43855663555448654, 1.0208993490121697e-217, 1, 3.4713329261966e-05),
        # scale**(1-q) past the largest double, with the value the scale
        (-1000.0, 1e300, -1, 0.5),
        (1001.0, 1e300, 1, 0.0),
        # the exp_q argument past the largest double, with the value 4.2e-44
        (2.45, 3.48e191, 1, -5.4e62),
        # a bracket 0.03 from the domain edge, where the bracket less 1 taken
        # from its logs alone would be 1.8e-12 off
        (-2.5257993513525823, 2.925739332704037e87, 1, -6.856465812032909e307),
        # exp_q's factor past the largest double, the value 1.9e13
        (0.693872461816806, 7.684402451542686e-297, 1, 37649.12913434948),
        # (1-q) ln scale past the largest double, where ln scale cancels out of ln y: 1.0
        (-1.7e308, 0.1, 1, 1.0),
    ])
    def test_range_edge_values_within_1e12_of_60_digits(self, q, scale, d, x):
        exact = _exact_trajectory(q, 0.0, scale, d, [x])[0]
        values = [analytic_solution(q, scale, d, x)] + (
            [_last_point(q, scale, d, x)] if x != 0.0 else [])
        for value in values:
            assert abs(value - exact) <= 1e-12 * exact

    @pytest.mark.parametrize("args", [
        # y0**(1-q) underflows to 0, and the growth never meets the boundary
        (-2606139289332.709, 6.967475553449666, 0.5950284869351065, 1, 11.476160577792989,
         0.002594180106066354),
        (50.0, 0.0, 1e10, -1, 1.0, 1e-3),
        # y0**(1-q) = 1e-320 is subnormal
        (-1.0, 0.0, 1e-160, 1, 1.0, 0.5),
        # y0**(1-q) past the largest double
        (-1000.0, 0.0, 1e300, -1, 0.5, 0.5),
        (-1.0, 0.0, 1e200, 1, 1.0, 0.1),
        # x0 + n*h rounds past the largest double: the last point is x_end,
        # where y (1.1e-308) is subnormal
        (2.0, 8.795874874880185e307, 1.0, -1, 1.7976931348623157e308, 4.817955637403735e306),
    ])
    def test_range_edge_trajectories_within_1e12_of_60_digits(self, args):
        q, x0, y0, d, x_end, _ = args
        traj = integrate_ode(*args)
        assert traj.xs[-1] == x_end
        exact = _exact_trajectory(q, x0, y0, d, traj.xs.tolist())
        for y, e in zip(traj.ys.tolist(), exact):
            assert y > 0.0
            if e >= sys.float_info.min:
                assert abs(y - e) <= 1e-12 * e

    def test_underflowed_scale_unit_meets_the_boundary_in_the_first_step(self):
        # y0**(1-q) underflows to 0 and (1-q)*direction < 0
        with pytest.raises(DomainViolation) as info:
            integrate_ode(-2606139289332.709, 6.967475553449666, 0.5950284869351065, -1,
                          11.476160577792989, 0.002594180106066354)
        assert info.value.index == 1

    def test_both_forms_agree_over_the_double_range(self):
        # q in [-3, 3] or [-1000, 1000], the scale log-uniform over 1e+-300,
        # both directions, x log-uniform in [1e-5, 1e5]: both return or both
        # raise the same error, never 0.0, and each value is within 1e-12 of
        # 60 digits where the bracket is at least 2**-10 and the value normal
        rng = np.random.default_rng(31)
        checked = 0
        for _ in range(500):
            q = float(rng.uniform(-3.0, 3.0) if rng.random() < 0.5
                      else rng.uniform(-1000.0, 1000.0))
            scale = float(10.0 ** rng.uniform(-300.0, 300.0))
            d = float(rng.choice([1.0, -1.0]))
            x = float(10.0 ** rng.uniform(-5.0, 5.0))
            outcomes = []
            for call in (analytic_solution, _last_point):
                try:
                    outcomes.append(call(q, scale, d, x))
                except QDeformError as err:
                    outcomes.append(type(err))
            got, ode = outcomes
            assert type(got) is type(ode) and (isinstance(got, float) or got is ode), (
                q, scale, d, x, got, ode)
            if not isinstance(got, float):
                continue
            assert got > 0.0 and ode > 0.0
            with mpmath.workdps(60):
                mq = mpmath.mpf(q)
                bracket = 1 + (1 - mq) * d * x / mpmath.mpf(scale) ** (1 - mq)
            if bracket < 2.0 ** -10:
                continue
            exact = _exact_trajectory(q, 0.0, scale, d, [x])[0]
            if sys.float_info.min <= exact <= sys.float_info.max:
                checked += 1
                for value in (got, ode):
                    assert abs(value - exact) <= 1e-12 * exact, (q, scale, d, x)
        assert checked > 300


@pytest.mark.parametrize("xs, ys, message", [
    (np.zeros(2), np.ones(3), "xs and ys must be 1-d arrays of equal length"),
    (np.array([0.0, 0.0]), np.ones(2), "sample abscissas must be strictly increasing"),
    (np.array([0.0, 1.0]), np.array([1.0, 0.0]), "sample values must be strictly positive"),
])
def test_malformed_trajectory_is_rejected(xs, ys, message):
    with pytest.raises(ValueError) as info:
        Trajectory(xs, ys, 1.3, -1.0)
    assert type(info.value) is ValueError and str(info.value) == message


class TestShiftExpansion:
    def test_hand_case(self):
        assert shift_expansion(0.5, 2.0) == pytest.approx((4.0, 2.0), rel=1e-14)
        # identity at x = 2: exp(4) = 9 = 4 * exp(1) = 4 * 2.25
        y_scale, x_scale = shift_expansion(0.5, 2.0)
        assert y_scale * q_exp(0.5, 2.0 / x_scale) == pytest.approx(
            q_exp(0.5, 4.0), rel=1e-14)

    def test_classical_leaves_x_axis_alone(self):
        y_scale, x_scale = shift_expansion(1.0, 1.7)
        assert y_scale == pytest.approx(math.exp(1.7), rel=1e-14)
        assert x_scale == 1.0

    def test_zero_shift(self):
        assert shift_expansion(2.2, 0.0) == (1.0, 1.0)

    def test_identity_random(self):
        rng = np.random.default_rng(21)
        done = 0
        while done < 1000:
            q = float(rng.uniform(0.2, 2.8))
            c = float(rng.uniform(-2.0, 2.0))
            x = float(rng.uniform(-3.0, 3.0))
            if q_exp_bracket(q, c) <= 1e-2 or q_exp_bracket(q, x + c) <= 1e-2:
                continue
            done += 1
            y_scale, x_scale = shift_expansion(q, c)
            lhs = q_exp(q, x + c)
            assert y_scale * q_exp(q, x / x_scale) == pytest.approx(
                lhs, rel=1e-12)

    def test_is_exp_q_and_its_power_bit_for_bit(self):
        rng = np.random.default_rng(27)
        for _ in range(2000):
            q = 1.0 if rng.random() < 0.1 else float(rng.uniform(-2.0, 4.0))
            c = float(rng.uniform(-5.0, 5.0))
            try:
                y_scale = q_exp(q, c)
            except DomainViolation:
                continue
            # the power exp_q(c)**(1-q) is the bracket itself
            got = shift_expansion(q, c)
            assert [v.hex() for v in got] == [y_scale.hex(), q_exp_bracket(q, c).hex()]

    def test_x_scale_is_the_bracket_in_60_digits(self):
        # the witnesses of the rounded exp_q(c) raised to the power 1-q
        # (x_scale 1.0 and 2.27e173 there); the third overflowed there
        for q, c, x_scale in ((1e20, -1e-10, 1.0000000001e10),
                              (1.7976805661996908e18, -3.9043646742478167e127, 7.02e145),
                              (-4.3196988666225544e16, 3.4392199811309485e289, 1.49e306)):
            with mpmath.workdps(60):
                bracket = 1 + (1 - mpmath.mpf(q)) * c
                y_exact = bracket ** (1 / (1 - mpmath.mpf(q)))
            y_scale, got = shift_expansion(q, c)
            assert got == pytest.approx(x_scale, rel=1e-2)
            assert abs(got - bracket) <= 2.0 ** -53 * bracket
            assert abs(y_scale - y_exact) <= 2.0 ** -52 * y_exact

    def test_x_scale_within_1e15_of_the_bracket(self):
        # |1-q| over 1e-3..1e300 and c over 1e+-300, in the domain away from
        # its edge and with exp_q(c) a normal double: shift_expansion's
        # x_scale and frequency_rescale's square root of it read the
        # 60-digit bracket 1 + (1-q)c to 1e-15; a bracket past the largest
        # double raises in both
        rng = np.random.default_rng(28)
        kept = past = 0
        with mpmath.workdps(60):
            for _ in range(10_000):
                one_minus_q = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 300.0))
                q = 1.0 - one_minus_q
                c = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-300.0, 300.0))
                bracket = 1 + (1 - mpmath.mpf(q)) * c
                if bracket < 2.0 ** -10:
                    continue
                if bracket > sys.float_info.max:
                    past += 1
                    with pytest.raises(RangeOverflow):
                        shift_expansion(q, c)
                    with pytest.raises(RangeOverflow):
                        frequency_rescale(q, 1.0, c, [0.0])
                    continue
                try:
                    if not q_exp(q, c) >= sys.float_info.min:
                        continue
                except (DomainViolation, RangeOverflow):
                    continue
                kept += 1
                assert abs(shift_expansion(q, c)[1] - bracket) <= 1e-15 * bracket
                half = frequency_rescale(q, 1.0, c, [0.0]).meta["x_scale"]
                assert abs(half - mpmath.sqrt(bracket)) <= 1e-15 * mpmath.sqrt(bracket)
        assert kept > 4000 and past > 1000

    def test_underflowed_scale_is_a_domain_error(self):
        # exp_q(-1e300) underflows to 0 at q > 1, and 0**(1-q) divides by 0
        q = 1.5407200512772015
        with pytest.raises(NonPositiveArgument, match="y_scale"):
            shift_expansion(q, -1e300)
        with pytest.raises(NonPositiveArgument, match="y_scale"):
            compose_shifts(q, 0.1, -1e300)


class TestComposeShifts:
    def test_reduces_to_single_shift(self):
        assert compose_shifts(0.5, 2.0, 0.0) == pytest.approx((4.0, 2.0))

    def test_two_equal_shifts(self):
        assert compose_shifts(0.5, 2.0, 2.0) == pytest.approx((16.0, 4.0))

    def test_classical(self):
        y_scale, x_scale = compose_shifts(1.0, 0.4, 1.1)
        assert y_scale == pytest.approx(math.exp(1.5), rel=1e-14)
        assert x_scale == 1.0

    def test_composition_is_deformed_sum_shift(self):
        # two rescaled-coordinate shifts act like one shift of
        # c1 + c2 + (1-q) c1 c2 in the original coordinates
        rng = np.random.default_rng(2)
        done = 0
        while done < 500:
            q = float(rng.uniform(0.2, 2.8))
            c1 = float(rng.uniform(-1.5, 1.5))
            c2 = float(rng.uniform(-1.5, 1.5))
            if (q_exp_bracket(q, c1) <= 1e-2
                    or q_exp_bracket(q, c2) <= 1e-2):
                continue
            done += 1
            comp = compose_shifts(q, c1, c2)
            ref = shift_expansion(q, c1 + c2 + (1.0 - q) * c1 * c2)
            assert comp[0] == pytest.approx(ref[0], rel=1e-12)
            assert comp[1] == pytest.approx(ref[1], rel=1e-12)

    def test_sequential_pullout_matches_total(self):
        # pulling c1 out of exp_q(x + c1 + c2) leaves the rest in rescaled
        # coordinates; pulling the total out in one step agrees pointwise
        rng = np.random.default_rng(4)
        done = 0
        while done < 500:
            q = float(rng.uniform(0.2, 2.8))
            c1, c2 = rng.uniform(-1.2, 1.2, size=2)
            x = float(rng.uniform(-2.0, 2.0))
            if (q_exp_bracket(q, c1) <= 1e-2
                    or q_exp_bracket(q, c2) <= 1e-2
                    or q_exp_bracket(q, c1 + c2) <= 1e-2
                    or q_exp_bracket(q, x + c1 + c2) <= 1e-2):
                continue
            done += 1
            direct = q_exp(q, x + c1 + c2)
            e1 = q_exp(q, c1)
            one_step = e1 * q_exp(q, (x + c2) / e1 ** (1.0 - q))
            y_scale, x_scale = shift_expansion(q, c1 + c2)
            single = y_scale * q_exp(q, x / x_scale)
            assert one_step == pytest.approx(direct, rel=1e-12)
            assert single == pytest.approx(direct, rel=1e-12)


class TestFig2Data:
    def test_columns_and_meta(self):
        table = fig2_data()
        assert table.columns == ("curve_id", "scale", "x_raw", "y_raw",
                                 "x_rescaled", "y_rescaled", "qlog_y")
        assert table.meta["q"] == 1.3
        assert table.meta["scales"] == [1.0, 10.0, 20.0]
        assert table.meta["qlog_intercepts"] == pytest.approx(
            [0.0, QLOG_13_10, QLOG_13_20], rel=1e-13)

    def test_base_point(self):
        table = fig2_data()
        first = table.rows[0]
        assert first[2] == 0.0 and first[3] == 1.0

    def test_rescaled_curves_coincide(self):
        curves = list(fig2_data().curves().values())
        for other in curves[1:]:
            assert [r[5] for r in other] == [r[5] for r in curves[0]]

    def test_rescaled_abscissas_shared(self):
        grid = np.linspace(*FIG2_GRID).tolist()
        for curve in fig2_data().curves().values():
            assert [r[4] for r in curve] == grid

    def test_qlog_column_is_affine(self):
        table = fig2_data()
        for row in table.rows:
            expected = -row[2] + q_log(1.3, row[1])
            assert row[6] == pytest.approx(expected, abs=1e-9)

    def test_empty_scales_or_grid_is_rejected(self):
        # both once returned a table with no rows
        with pytest.raises(ValueError, match="scales must be non-empty"):
            fig2_data([], 1.3, np.linspace(*FIG2_GRID))
        with pytest.raises(ValueError, match="grid must be non-empty"):
            fig2_data([1.0, 10.0], 1.3, [])

    def test_classical_override_collapses_x_scaling(self):
        table = fig2_data(q=1.0)
        for row in table.rows:
            assert row[2] == row[4]  # x_raw == x_rescaled when scale**0 == 1
