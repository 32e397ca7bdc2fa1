"""Power-law dynamics: closed form, RK4 cross-check, shift/rescale structure."""

import math

import numpy as np
import pytest

from qdeform import (
    BlowupDetected,
    DomainViolation,
    NonPositiveArgument,
    analytic_solution,
    compose_shifts,
    fig2_data,
    integrate_ode,
    q_exp,
    q_exp_bracket,
    q_log,
    rescale_factor,
    shift_expansion,
)
from qdeform.dynamics import FIG2_GRID, Y_MAX

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


class TestQLogLine:
    # log_q y = direction * x + log_q(scale): the intercepts of fig. 2
    def test_intercepts(self):
        assert q_log(1.3, 10.0) == pytest.approx(QLOG_13_10, rel=1e-14)
        assert q_log(1.3, 20.0) == pytest.approx(QLOG_13_20, rel=1e-14)


def _stage_rk4(q, x0, y0, d, x_end, step):
    """integrate_ode in its earlier form, each RK4 stage a call of one
    checked stage function, kept as the reference for the written-out loop."""
    scale = rescale_factor(q, d * x0, y0)
    scale_pow = scale ** (1.0 - q)

    def rhs(x, y):
        if y <= 0.0:
            raise BlowupDetected(x, y, "intermediate stage left (0, y_max)")
        return d * y ** q

    n_steps = max(1, math.ceil((x_end - x0) / step))
    h = (x_end - x0) / n_steps
    xs, ys, y = [x0], [y0], y0
    for i in range(n_steps):
        x = x0 + i * h
        x_next = x0 + (i + 1) * h
        if q != 1.0 and q_exp_bracket(q, d * x_next / scale_pow) < 1e-12:
            raise BlowupDetected(x_next, y, "analytic domain boundary reached")
        k1 = rhs(x, y)
        k2 = rhs(x, y + 0.5 * h * k1)
        k3 = rhs(x, y + 0.5 * h * k2)
        k4 = rhs(x, y + h * k3)
        y = y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not (0.0 < y < Y_MAX):
            raise BlowupDetected(x_next, y, "solution left (0, y_max)")
        xs.append(x_next)
        ys.append(y)
    return np.asarray(xs), np.asarray(ys)


class TestWrittenOutStages:
    @pytest.mark.parametrize("q", [0.5, 1.0, 1.3, 2.0])
    @pytest.mark.parametrize("direction", [1, -1])
    def test_trajectory_bits_match_stage_function_form(self, q, direction):
        args = (q, 0.3, 1.4, direction, 0.8, 5e-4)  # 1000 steps
        traj = integrate_ode(*args)
        xs, ys = _stage_rk4(*args)
        assert traj.xs.size == 1001
        assert traj.xs.tobytes() == xs.tobytes() and traj.ys.tobytes() == ys.tobytes()

    @pytest.mark.parametrize("args, reason", [
        ((0.5, 0.0, 1.0, -1, 3.0, 1e-3), "analytic domain boundary reached"),
        ((2.0, 0.0, 1e3, -1, 1.0, 1e-2), "intermediate stage left (0, y_max)"),
        ((1.0, 0.0, 1.0, 1, 30.0, 1e-2), "solution left (0, y_max)"),
    ])
    def test_blowup_matches_stage_function_form(self, args, reason):
        with pytest.raises(BlowupDetected) as new:
            integrate_ode(*args)
        with pytest.raises(BlowupDetected) as old:
            _stage_rk4(*args)
        assert str(new.value).endswith(reason)
        assert (new.value.x, new.value.y, str(new.value)) == (old.value.x, old.value.y,
                                                              str(old.value))


class TestIntegrateODE:
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
        with pytest.raises(BlowupDetected):
            integrate_ode(2.0, 0.0, 1.0, 1, 2.0, 1e-3)

    def test_support_edge_detected(self):
        # q=0.5 decaying branch hits y=0 at x = 2
        with pytest.raises(BlowupDetected):
            integrate_ode(0.5, 0.0, 1.0, -1, 3.0, 1e-3)

    def test_trajectory_structure(self):
        traj = integrate_ode(1.5, 0.0, 2.0, -1, 0.3, 1e-2)
        assert np.all(np.diff(traj.xs) > 0)
        assert np.all(traj.ys > 0)
        assert traj.xs[0] == 0.0 and traj.xs[-1] == pytest.approx(0.3)

    def test_stops_past_y_max(self):
        # e**30 > 1e12
        with pytest.raises(BlowupDetected, match=r"solution left \(0, y_max\)"):
            integrate_ode(1.0, 0.0, 1.0, 1, 30.0, 1e-2)

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

    def test_nonzero_start(self):
        traj = integrate_ode(1.3, 1.0, 0.8, -1, 2.0, 1e-3)
        scale = q_exp(1.3, q_log(1.3, 0.8) + 1.0)
        assert traj.ys[-1] == pytest.approx(
            analytic_solution(1.3, scale, -1, 2.0), rel=1e-9)


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
