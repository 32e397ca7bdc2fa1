"""Deformed bell densities, likelihood stationarity, frequency rescaling."""

import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma as gamma_fn

from qdeform import (
    DomainViolation,
    NonPositiveArgument,
    QGaussianModel,
    RangeOverflow,
    UnnormalizableModel,
    beta_from,
    fig3_data,
    frequency_rescale,
    mlp_stationarity,
    normalization,
    q_exp,
    q_exp_bracket,
    q_gaussian_pdf,
    q_log,
    q_log_likelihood,
)
from qdeform.qgaussian import FIG3_GRID
from qdeform.verify import _defining_ode_residual, _likelihood_terms

import mp60

SQRT_PI = 1.772453850905516027298
INV_SQRT_PI = 0.5641895835477562869481
QLOG_17_100 = 1.371698975635214678461  # (100**-0.7 - 1)/(-0.7)


def closed_form_norm(q, beta):
    """Gamma-function normalization used as the independent oracle."""
    if q == 1.0:
        return math.sqrt(math.pi / beta)
    if q < 1.0:
        return (2.0 * math.sqrt(math.pi) * gamma_fn(1.0 / (1.0 - q))
                / ((3.0 - q) * math.sqrt(1.0 - q)
                   * gamma_fn((3.0 - q) / (2.0 * (1.0 - q))))
                / math.sqrt(beta))
    return (math.sqrt(math.pi) * gamma_fn((3.0 - q) / (2.0 * (q - 1.0)))
            / (math.sqrt(q - 1.0) * gamma_fn(1.0 / (q - 1.0)))
            / math.sqrt(beta))


class TestNormalization:
    def test_gaussian_value(self):
        assert normalization(1.0, 1.0) == pytest.approx(SQRT_PI, abs=1e-10)

    def test_parabola_value(self):
        # q=0: integral of (1 - e^2) over [-1, 1]
        assert normalization(0.0, 1.0) == pytest.approx(4.0 / 3.0, abs=1e-10)

    def test_lorentzian_value(self):
        assert normalization(2.0, 1.0) == pytest.approx(math.pi, abs=1e-10)

    def test_continuity_at_classical_index(self):
        for q in (1.0 - 1e-6, 1.0 + 1e-6):
            assert normalization(q, 1.0) == pytest.approx(SQRT_PI, abs=1e-4)
        # the true gap to sqrt(pi) is 3.8e-13 here, while the Gamma ratio
        # taken as exp(lgamma(a) - lgamma(a + 1/2)) is off by ~1e-3 relative
        for q in (1.0 - 1e-12, 1.0 + 1e-12):
            assert normalization(q, 1.0) == pytest.approx(SQRT_PI, rel=1e-12)

    def test_against_closed_form_grid(self):
        for q in (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 2.9999, 2.99999):
            for beta in (0.5, 1.0, 2.0):
                assert normalization(q, beta) == pytest.approx(
                    closed_form_norm(q, beta), rel=1e-12)

    def test_unnormalizable(self):
        with pytest.raises(UnnormalizableModel):
            normalization(3.0, 1.0)
        with pytest.raises(UnnormalizableModel):
            normalization(3.4, 1.0)


class TestBetaFrom:
    def test_zero_offset(self):
        for q in (0.5, 1.0, 1.9):
            assert beta_from(q, -2.0, 0.0) == 1.0

    def test_classical_ignores_offset(self):
        assert beta_from(1.0, -3.0, 2.7) == 1.5

    def test_offset_value(self):
        assert beta_from(1.7, -2.0, 0.5) == pytest.approx(
            1.53846153846153846, rel=1e-14)

    def test_offset_bracket_violation(self):
        with pytest.raises(DomainViolation):
            beta_from(1.7, -2.0, 3.0)  # 1 - 0.7*3 < 0

    def test_sign_requirement(self):
        with pytest.raises(ValueError):
            beta_from(1.5, 2.0, 0.0)

    @pytest.mark.parametrize("ode_coeff", [2.0, 0.0, -math.inf, math.nan])
    def test_sign_requirement_is_named_with_its_value(self, ode_coeff):
        with pytest.raises(NonPositiveArgument, match="-ode_coeff must be") as info:
            beta_from(1.5, ode_coeff, 0.0)
        assert info.value.name == "-ode_coeff"
        assert math.copysign(1.0, info.value.value) == -math.copysign(1.0, ode_coeff)


class TestModelAndPdf:
    def test_gaussian_mode_height(self):
        model = QGaussianModel.from_beta(1.0, 1.0)
        assert q_gaussian_pdf(model, 0.0) == pytest.approx(INV_SQRT_PI, abs=1e-10)

    def test_mode_is_inverse_norm(self):
        for q in (0.3, 1.4, 2.2):
            model = QGaussianModel.from_beta(q, 1.3)
            assert q_gaussian_pdf(model, 0.0) == pytest.approx(
                1.0 / model.norm, rel=1e-14)

    def test_symmetry(self):
        model = QGaussianModel.from_beta(1.7, 0.8)
        for e in (0.1, 0.9, 2.4):
            assert q_gaussian_pdf(model, e) == q_gaussian_pdf(model, -e)

    # -beta * e**2 passes the largest double: at these indices the bell is
    # past the cutoff or below the smallest double; a non-finite e is still an error
    @pytest.mark.parametrize("q", [-2.2883457448439016e16, 0.5, 1.0, 1.7])
    def test_far_tail_is_zero(self, q):
        model = QGaussianModel.from_beta(q, 2.481793860521234e-176)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert q_gaussian_pdf(model, -3.131090151915462e250) == 0.0
        with pytest.raises(ValueError, match="must be finite"):
            q_gaussian_pdf(model, math.inf)

    # above q of about 1.96 the power-law tail is still a nonzero double where
    # -beta * e**2 passes the largest double; 60-digit mpmath is the reference
    @pytest.mark.parametrize("q", [2.0, 2.5, 2.9, 2.99])
    @pytest.mark.parametrize("beta, e", [(1.0, 1e160), (1.0, -1e200),
                                         (2.481793860521234e-176, -3.131090151915462e250)])
    def test_far_heavy_tail_matches_mpmath(self, q, beta, e):
        model = QGaussianModel.from_beta(q, beta)
        assert -model.beta * e * e == -math.inf
        with mpmath.workdps(60):
            mq, mbeta, me = mpmath.mpf(q), mpmath.mpf(beta), mpmath.mpf(e)
            norm = (mpmath.sqrt(mpmath.pi / ((mq - 1) * mbeta))
                    * mpmath.gamma((3 - mq) / (2 * (mq - 1))) / mpmath.gamma(1 / (mq - 1)))
            expected = (1 + (mq - 1) * mbeta * me**2) ** (-1 / (mq - 1)) / norm
        value = q_gaussian_pdf(model, e)
        if expected < sys.float_info.min:  # subnormal, or below the smallest double
            assert value == pytest.approx(float(expected), rel=0, abs=1e-323)
        else:
            assert value > 0.0
            assert value == pytest.approx(float(expected), rel=1e-12)

    def test_heavy_tail_support_is_unbounded(self):
        assert QGaussianModel.from_beta(1.5, 1.0).support_halfwidth() == math.inf

    def test_compact_support_cutoff(self):
        model = QGaussianModel.from_beta(0.5, 1.0)
        edge = model.support_halfwidth()
        assert edge == pytest.approx(math.sqrt(2.0), rel=1e-14)
        assert q_gaussian_pdf(model, edge + 0.1) == 0.0

    def test_total_mass(self):
        for q in (0.0, 0.5, 1.0, 1.5, 2.0, 2.5):
            for beta in (0.5, 1.0, 2.0):
                model = QGaussianModel.from_beta(q, beta)
                if q < 1.0:
                    edge = model.support_halfwidth()
                    mass, _ = quad(lambda e: q_gaussian_pdf(model, e),
                                   -edge, edge, points=[0.0],
                                   epsabs=1e-12, epsrel=1e-12, limit=200)
                else:
                    mass, _ = quad(lambda e: q_gaussian_pdf(model, e),
                                   -np.inf, np.inf, epsabs=1e-12,
                                   epsrel=1e-12, limit=400)
                assert mass == pytest.approx(1.0, abs=1e-8)

    def test_derived_fields(self):
        model = QGaussianModel(q=1.7, ode_coeff=-2.0, log_offset=0.5)
        assert model.gamma == 1.0
        assert model.scale == pytest.approx(q_exp(1.7, 0.5), rel=1e-14)
        assert model.beta == pytest.approx(1.53846153846153846, rel=1e-14)

    def test_near_divergence_builds_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for q in (2.9, 2.98, 2.99, 2.999, 2.9999, 2.99999):
                model = QGaussianModel.from_beta(q, 1.0)
                assert model.norm == pytest.approx(closed_form_norm(q, 1.0),
                                                   rel=1e-12)

    def test_requires_normalizable_index(self):
        with pytest.raises(UnnormalizableModel):
            QGaussianModel.from_beta(3.0, 1.0)


class TestLikelihood:
    def test_classical_reduces_to_log_likelihood(self):
        model = QGaussianModel.from_beta(1.0, 1.0)
        samples = [-0.4, 0.2, 1.1]
        expected = sum(math.log(q_gaussian_pdf(model, x - 0.3))
                       for x in samples)
        assert q_log_likelihood(model, 0.3, samples) == pytest.approx(
            expected, rel=1e-14)

    def test_single_sample_peaks_at_itself(self):
        model = QGaussianModel.from_beta(1.7, 1.0)
        x = 0.8
        at_sample = q_log_likelihood(model, x, [x])
        for theta in (x - 0.5, x - 0.1, x + 0.2, x + 0.7):
            assert q_log_likelihood(model, theta, [x]) < at_sample

    def test_strict_mode_raises_outside_support(self):
        model = QGaussianModel.from_beta(0.5, 1.0)
        with pytest.raises(DomainViolation) as err:
            q_log_likelihood(model, 0.0, [0.1, 5.0, 7.0])
        assert err.value.index == 1
        assert err.value.constraint == q_exp_bracket(0.5, -25.0) == -11.5
        assert str(err.value) == ("sample 1 outside the density support (element 1): "
                                  "constraint value -11.5 <= 0")

    def test_classical_far_samples_stay_finite(self):
        # exp(-1600) underflows to 0, so a density-first sum has no log to take
        for beta in (0.5, 1.0):
            model = QGaussianModel.from_beta(1.0, beta)
            value = q_log_likelihood(model, 0.0, [0.0, 40.0])
            assert value == pytest.approx(-1600.0 * beta - 2.0 * math.log(model.norm),
                                          rel=1e-15)

    # 10k samples at theta* and a quarter width either side: the parabola
    # agrees with the per-sample sum within 1e-12 of the sum of |terms|
    @pytest.mark.parametrize("q", [0.0, 0.5, 1.0, 1.3, 1.7, 2.0, 2.5])
    def test_parabola_matches_per_sample_sum(self, q):
        rng = np.random.default_rng(13)
        for beta in (0.5, 1.0, 2.0):
            model = QGaussianModel.from_beta(q, beta)
            width = 1.0 / math.sqrt(beta)
            if q < 1.0:
                samples = rng.uniform(-0.5 * width, 0.5 * width, size=10_000)
            else:
                samples = rng.normal(0.0, width, size=10_000)
            mean = float(np.mean(samples))
            for theta in (mean - 0.25 * width, mean, mean + 0.25 * width):
                terms = _likelihood_terms(model, theta, samples)
                assert abs(q_log_likelihood(model, theta, samples) - math.fsum(terms)) <= (
                    1e-12 * math.fsum(map(abs, terms))), (beta, theta)

    @pytest.mark.parametrize("theta, samples, named", [
        (math.nan, [1.0], "theta must be finite, got nan"),
        (0.0, [1.0, math.inf], r"samples\[1\] must be finite, got inf"),
        (0.0, [], "samples must be non-empty"),
    ])
    def test_non_finite_input_is_named(self, theta, samples, named):
        with pytest.raises(ValueError, match=named):
            q_log_likelihood(QGaussianModel.from_beta(1.5, 1.0), theta, samples)

    @pytest.mark.parametrize("q, samples", [(1.0, [1e200, 1e200]), (1.5, [1e160]),
                                            (2.5, [1e154, 1e154, 1e154])])
    def test_overflow_is_named_without_warning(self, q, samples):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RangeOverflow) as err:
                q_log_likelihood(QGaussianModel.from_beta(q, 1.0), 0.0, samples)
        assert err.value.q == q
        assert f"(theta=0.0, {len(samples)} samples)" in str(err.value)

    def test_grid_argmax_is_sample_mean(self):
        model = QGaussianModel.from_beta(1.7, 1.0)
        rng = np.random.default_rng(17)
        samples = rng.normal(0.3, 1.0, size=10)
        thetas = np.linspace(-1.0, 1.5, 2001)
        values = [q_log_likelihood(model, t, samples) for t in thetas]
        best = thetas[int(np.argmax(values))]
        assert best == pytest.approx(np.mean(samples), abs=2e-3)


class TestStationarity:
    def test_classical_far_sample(self):
        for beta in (0.5, 1.0):
            model = QGaussianModel.from_beta(1.0, beta)
            grad, curv = mlp_stationarity(model, [0.0, 60.0])
            assert grad == 0.0
            assert curv == -4.0 * beta

    def test_exact_curvature(self):
        for q in (0.0, 0.5, 1.0, 1.7, 2.5):
            model = QGaussianModel.from_beta(q, 1.3)
            grad, curv = mlp_stationarity(model, [-0.2, 0.1, 0.3])
            assert curv == pytest.approx(-6.0 * 1.3 * model.norm ** (q - 1.0), rel=1e-15)
            assert abs(grad) <= 1e-15 * abs(curv)

    def test_keeps_the_support_check(self):
        model = QGaussianModel.from_beta(0.5, 1.0)
        with pytest.raises(DomainViolation) as err:
            mlp_stationarity(model, [0.0, 0.1, 4.0])
        assert err.value.index == 2

    def test_symmetric_samples(self):
        model = QGaussianModel.from_beta(1.3, 1.0)
        grad, curv = mlp_stationarity(model, [-1.0, -0.25, 0.25, 1.0])
        assert curv < 0.0
        assert abs(grad) <= 1e-6 * abs(curv)

    def test_classical_case(self):
        model = QGaussianModel.from_beta(1.0, 1.0)
        grad, curv = mlp_stationarity(model, [0.0, 1.0, 2.0, 5.0])
        assert curv < 0.0
        assert abs(grad) <= 1e-6 * abs(curv) * 5.0

    def test_asymmetric_four_points(self):
        model = QGaussianModel.from_beta(1.7, 1.0)
        samples = [-1.0, 0.0, 0.5, 2.0]
        assert np.mean(samples) == pytest.approx(0.375)
        grad, curv = mlp_stationarity(model, samples)
        assert curv < 0.0
        assert abs(grad) <= 1e-6 * abs(curv) * 2.0

    def test_random_sets_all_indices(self):
        rng = np.random.default_rng(29)
        for q in (0.5, 1.3, 1.7):
            model = QGaussianModel.from_beta(q, 1.0)
            for _ in range(25):
                if q < 1.0:
                    samples = rng.uniform(-0.5, 0.5, size=10)
                else:
                    samples = rng.normal(0.0, 1.0, size=10)
                grad, curv = mlp_stationarity(model, samples)
                scale = max(1.0, float(np.max(np.abs(samples
                                                     - np.mean(samples)))))
                assert curv < 0.0
                assert abs(grad) <= 1e-6 * abs(curv) * scale


class TestDefiningODE:
    def test_origin_residual_vanishes(self):
        model = QGaussianModel(q=1.7, ode_coeff=-2.0, log_offset=0.5)
        assert _defining_ode_residual(model, 0.0) == 0.0

    def test_classical_identity(self):
        model = QGaussianModel(q=1.0, ode_coeff=-2.0, log_offset=0.0)
        for e in (0.2, 0.7, 1.3):
            res = _defining_ode_residual(model, e)
            assert abs(res) <= 1e-5 * abs(-2.0 * e) + 1e-8

    def test_deformed_within_contract(self):
        model = QGaussianModel(q=1.7, ode_coeff=-2.0, log_offset=0.5)
        res = _defining_ode_residual(model, 0.3)
        assert abs(res) <= 1e-5 * abs(-2.0 * 0.3) + 1e-8

    def test_lnq_of_unnormalized_form_is_quadratic(self):
        model = QGaussianModel(q=1.3, ode_coeff=-3.0, log_offset=0.4)
        grid = np.linspace(-0.5, 0.5, 41)
        h = grid[1] - grid[0]
        lnq = np.array([q_log(1.3, q_exp(1.3, 0.5 * -3.0 * e * e + 0.4))
                        for e in grid])
        second = (lnq[2:] - 2 * lnq[1:-1] + lnq[:-2]) / (h * h)
        np.testing.assert_allclose(second, -3.0, rtol=1e-6)


class TestFrequencyRescale:
    def test_unit_scale_is_identity(self):
        grid = np.linspace(-2.0, 2.0, 41)
        table = frequency_rescale(1.7, 1.0, 0.0, grid)
        assert table.meta["scale"] == 1.0
        np.testing.assert_allclose(table.column("e_raw"),
                                   table.column("e_rescaled"), rtol=1e-14)
        np.testing.assert_allclose(table.column("f_raw"),
                                   table.column("f_rescaled"), rtol=1e-14)

    def test_classical_only_rescales_ordinates(self):
        grid = np.linspace(-1.0, 1.0, 21)
        table = frequency_rescale(1.0, 1.0, 2.0, grid)
        np.testing.assert_allclose(table.column("e_raw"), grid, atol=1e-15)
        assert table.meta["x_scale"] == 1.0

    def test_rescaled_matches_reference(self):
        grid = np.linspace(-3.0, 3.0, 101)
        for c in (1.0, 10.0, 100.0):
            table = frequency_rescale(1.7, 1.0, q_log(1.7, c), grid)
            assert table.column("e_rescaled").tolist() == grid.tolist()
            np.testing.assert_allclose(table.column("f_rescaled"),
                                       table.column("reference"), rtol=1e-12)
            assert table.meta["scale"] == pytest.approx(c, rel=1e-12)


class TestFig3Data:
    def test_meta_and_base_point(self):
        table = fig3_data()
        assert table.meta["q"] == 1.7
        assert table.meta["scales"] == [1.0, 10.0, 100.0]
        assert table.meta["qlog_intercepts"][2] == pytest.approx(
            QLOG_17_100, rel=1e-13)
        mid = (table.column("curve_id") == 0) & (table.column("x_raw") == 0.0)
        assert mid.any() and table.column("y_raw")[mid][0] == 1.0

    def test_rescaled_curves_coincide(self):
        grid = np.linspace(*FIG3_GRID).tolist()
        table = fig3_data()
        ids, xs, ys = (table.column(c) for c in ("curve_id", "x_rescaled", "y_rescaled"))
        curves = [(xs[ids == c].tolist(), ys[ids == c].tolist()) for c in np.unique(ids)]
        for x_curve, y_curve in curves:
            assert x_curve == grid
            assert y_curve == curves[0][1]

    def test_empty_scales_or_grid_is_rejected(self):
        with pytest.raises(ValueError, match="scales must be non-empty"):
            fig3_data([], 1.7, np.linspace(*FIG3_GRID))
        with pytest.raises(ValueError, match="grid must be non-empty"):
            fig3_data([1.0], 1.7, np.array([]))

    def test_qlog_column_past_the_lift_range(self):
        # y_raw**(1-q) = 1.5e77**4 passes the largest double, log_q(y_raw) does not
        table = fig3_data([1.5e77], -3.0, [0.0, 0.1])
        y_raw = table.column("y_raw").tolist()
        assert table.column("qlog_y").tolist() == [q_log(-3.0, y) for y in y_raw]
        exact = mp60.log_q(-3.0, 1.5e77)
        assert abs(table.meta["qlog_intercepts"][0] - exact) <= 1e-12 * exact

    def test_qlog_column_is_parabola(self):
        table = fig3_data()
        for scale, x_raw, qlog_y in zip(*(table.column(c).tolist()
                                          for c in ("scale", "x_raw", "qlog_y"))):
            assert qlog_y == pytest.approx(-x_raw ** 2 + q_log(1.7, scale), abs=1e-9)
