"""Deformed Gaussian densities and the maximum-likelihood-at-the-mean check.

A location family whose deformed log-likelihood

    L(theta) = sum_i log_q f(x_i - theta)

peaks at the sample mean for every sample must have a bell density whose
deformed log is an exact downward parabola,

    log_q f(e) = ode_coeff * e**2 / 2 + log_offset,      ode_coeff < 0,

equivalently f'(e)/f(e)**q = ode_coeff * e.  Normalizing turns this into

    pdf(e) = exp_q(-beta * e**2) / Z,
    beta   = -ode_coeff / (2 * (1 + (1-q) * log_offset)),

normalizable for q < 3: compact support |e| < 1/sqrt(beta*(1-q)) below
q = 1, power-law tails ~ |e|**(-2/(q-1)) above.  The integration constant
``log_offset`` stays an explicit model parameter -- it sets the scale
c = exp_q(log_offset) of the associated frequency curve and is never
defaulted silently; every emitted table records the scale it was computed
at, because normalization is only meaningful per fixed scale.

The normalization integral has the closed Gamma-function form
C_q / sqrt(beta) (Umarov, Tsallis & Steinberg, Milan J. Math. 76 (2008)
307), evaluated without quadrature; ``verify`` integrates the normalized
density independently as its check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import _q_exp_array, check_index, q_exp, q_exp_bracket, q_log
from .errors import DomainViolation, NonPositiveArgument, UnnormalizableModel
from .tables import FigureTable, _scaled_family

__all__ = [
    "QGaussianModel",
    "beta_from",
    "normalization",
    "q_gaussian_pdf",
    "q_log_likelihood",
    "mlp_stationarity",
    "defining_ode_residual",
    "frequency_rescale",
    "fig3_data",
]

FIG3_SCALES = (1.0, 10.0, 100.0)
FIG3_INDEX = 1.7
FIG3_GRID = (-5.0, 5.0, 501)  # rescaled abscissas: min, max, points


def beta_from(q: float, ode_coeff: float, log_offset: float) -> float:
    """Width coefficient -ode_coeff / (2 * (1 + (1-q) * log_offset)).

    Positive whenever ode_coeff < 0 and the offset bracket is positive;
    raises :class:`DomainViolation` when the bracket fails.
    """
    q = check_index(q)
    ode_coeff = float(ode_coeff)
    if not (ode_coeff < 0.0) or not math.isfinite(ode_coeff):
        raise ValueError(f"ode_coeff must be a negative real, got {ode_coeff!r}")
    w = q_exp_bracket(q, float(log_offset))
    if w <= 0.0:
        raise DomainViolation("offset bracket 1 + (1-q)*log_offset", w)
    return -ode_coeff / (2.0 * w)


def _log_gamma_ratio(z: float) -> float:
    """h(z) = ln Gamma(z + 1/2) - ln Gamma(z) - ln(z) / 2, for z > 0.

    h(z) -> 0 as z -> oo; from z = 100 on its asymptotic series replaces
    the difference of lgammas, which would cancel there.
    """
    if z < 100.0:
        return math.lgamma(z + 0.5) - math.lgamma(z) - 0.5 * math.log(z)
    return (-1.0 / (8.0 * z) + 1.0 / (192.0 * z**3) - 1.0 / (640.0 * z**5)
            + 17.0 / (14336.0 * z**7))


def normalization(q: float, beta: float) -> float:
    """Integral of exp_q(-beta * e**2) over its support, C_q / sqrt(beta).

    The Gamma-function ratio C_q is taken through :func:`_log_gamma_ratio`
    so that it does not cancel as q -> 1; it agrees with the ratio
    evaluated at high precision to within 1e-13 relative for q in [-5, 3)
    and beta in [1e-2, 1e3].

    Raises :class:`UnnormalizableModel` for q >= 3, where the tail exponent
    2/(q-1) drops to 1 and the integral diverges.
    """
    q = check_index(q)
    beta = float(beta)
    if not (beta > 0.0) or not math.isfinite(beta):
        raise NonPositiveArgument("beta", beta)
    if q >= 3.0:
        raise UnnormalizableModel(q)
    if q == 1.0:
        c_q = math.sqrt(math.pi)
    elif q < 1.0:
        c_q = (2.0 * math.sqrt(math.pi) / (3.0 - q)
               * math.exp(-_log_gamma_ratio(1.0 / (1.0 - q))))
    else:
        c_q = (math.sqrt(2.0 * math.pi / (3.0 - q))
               * math.exp(-_log_gamma_ratio((3.0 - q) / (2.0 * (q - 1.0)))))
    return c_q / math.sqrt(beta)


@dataclass(frozen=True)
class QGaussianModel:
    """Bell density defined by (q, ode_coeff, log_offset); derived
    quantities are computed once at construction.

    gamma  = -ode_coeff/2          curvature of the deformed-log parabola
    scale  = exp_q(log_offset)     frequency-curve scale unit
    beta   = width coefficient of the normalized bell
    norm   = integral of exp_q(-beta * e**2) over the support
    """

    q: float
    ode_coeff: float
    log_offset: float
    gamma: float = field(init=False)
    scale: float = field(init=False)
    beta: float = field(init=False)
    norm: float = field(init=False)

    def __post_init__(self):
        q = check_index(self.q)
        beta = beta_from(q, self.ode_coeff, self.log_offset)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "ode_coeff", float(self.ode_coeff))
        object.__setattr__(self, "log_offset", float(self.log_offset))
        object.__setattr__(self, "gamma", -self.ode_coeff / 2.0)
        object.__setattr__(self, "scale", q_exp(q, self.log_offset))
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "norm", normalization(q, beta))

    @classmethod
    def from_beta(cls, q: float, beta: float) -> "QGaussianModel":
        """Model with the given width coefficient and zero log offset."""
        beta = float(beta)
        if not (beta > 0.0) or not math.isfinite(beta):
            raise NonPositiveArgument("beta", beta)
        return cls(q=q, ode_coeff=-2.0 * beta, log_offset=0.0)

    def support_halfwidth(self) -> float:
        """Half-width of the support: finite only for q < 1."""
        if self.q >= 1.0:
            return math.inf
        return 1.0 / math.sqrt(self.beta * (1.0 - self.q))


def q_gaussian_pdf(model: QGaussianModel, e: float) -> float:
    """Normalized density exp_q(-beta * e**2) / norm.

    Outside the compact support (q < 1) the density is 0 by the continuous
    cutoff extension -- the natural convention in a density context.
    """
    e = float(e)
    return q_exp(model.q, -model.beta * e * e, cutoff=True) / model.norm


def q_log_likelihood(model: QGaussianModel, theta: float, samples,
                     strict: bool = True) -> float:
    """Deformed log-likelihood sum_i log_q pdf(x_i - theta).

    In strict mode a sample outside the support (possible only for q < 1)
    raises :class:`DomainViolation` naming the sample; otherwise it
    contributes log_q(0+) = -1/(1-q), the finite infimum of the deformed
    log, as a domain-limited penalty.
    """
    theta = float(theta)
    q = model.q
    terms = []
    for i, x in enumerate(samples):
        f = q_gaussian_pdf(model, float(x) - theta)
        if f <= 0.0:
            if strict:
                e = float(x) - theta
                raise DomainViolation(
                    f"sample {i} outside the density support",
                    q_exp_bracket(q, -model.beta * e * e), index=i)
            terms.append(-1.0 / (1.0 - q))
        else:
            terms.append(q_log(q, f))
    if not terms:
        raise ValueError("samples must be non-empty")
    return math.fsum(terms)


def mlp_stationarity(model: QGaussianModel, samples):
    """First and second central differences of the likelihood at the mean.

    Returns (gradient, curvature) at theta* = mean(samples), with step
    1e-6 * scale where scale = max(1, largest deviation from the mean).
    For a correctly specified model the gradient vanishes (the likelihood
    is an exact downward parabola in theta) and the curvature is negative:
    |gradient| <= 1e-6 * |curvature| * scale holds with wide margin.
    """
    xs = [float(x) for x in samples]
    if not xs:
        raise ValueError("samples must be non-empty")
    theta_star = math.fsum(xs) / len(xs)
    spread = max(abs(x - theta_star) for x in xs)
    scale = max(1.0, spread)
    h = 1e-6 * scale
    l_plus = q_log_likelihood(model, theta_star + h, xs)
    l_minus = q_log_likelihood(model, theta_star - h, xs)
    l_mid = q_log_likelihood(model, theta_star, xs)
    gradient = (l_plus - l_minus) / (2.0 * h)
    curvature = (l_plus - 2.0 * l_mid + l_minus) / (h * h)
    return gradient, curvature


def defining_ode_residual(model: QGaussianModel, e: float,
                          step: float = 1e-6) -> float:
    """Residual f'(e)/f(e)**q - ode_coeff * e of the defining equation.

    f is the unnormalized form exp_q(ode_coeff * e**2 / 2 + log_offset) and
    f' a central difference at the given step, so the residual is bounded
    by 1e-5 * |ode_coeff * e| + 1e-8 at interior points.
    """
    e = float(e)
    q = model.q

    def f(t: float) -> float:
        return q_exp(q, 0.5 * model.ode_coeff * t * t + model.log_offset)

    derivative = (f(e + step) - f(e - step)) / (2.0 * step)
    return derivative / f(e) ** q - model.ode_coeff * e


def frequency_rescale(q: float, gamma: float, log_offset: float, grid) -> FigureTable:
    """Frequency curve f(e) = exp_q(-gamma * e**2 + log_offset) and its
    per-scale rescaling.

    ``grid`` supplies the rescaled abscissas; raw points are
    e = grid * scale**((1-q)/2) with scale = exp_q(log_offset), and the
    rescaled ordinates f(e)/scale coincide with the scale-free reference
    exp_q(-gamma * grid**2) pointwise.  The chosen scale is recorded in the
    table metadata.
    """
    q = check_index(q)
    gamma = float(gamma)
    if not (gamma > 0.0) or not math.isfinite(gamma):
        raise NonPositiveArgument("gamma", gamma)
    scale = q_exp(q, float(log_offset))
    x_scale = scale ** ((1.0 - q) / 2.0)
    grid = np.asarray(grid, dtype=float)
    # an overflow to inf here is reported by the kernel
    with np.errstate(over="ignore"):
        e_raw = grid * x_scale
        f_raw = _q_exp_array(q, -gamma * e_raw * e_raw + log_offset)
        reference = _q_exp_array(q, -gamma * grid * grid)
    rows = zip(e_raw.tolist(), f_raw.tolist(), (e_raw / x_scale).tolist(),
               (f_raw / scale).tolist(), reference.tolist())
    meta = {"q": q, "gamma": gamma, "log_offset": float(log_offset),
            "scale": scale, "x_scale": x_scale}
    return FigureTable(
        columns=("e_raw", "f_raw", "e_rescaled", "f_rescaled", "reference"),
        rows=tuple(rows),
        meta=meta,
    )


def fig3_data(scales=FIG3_SCALES, q: float = FIG3_INDEX, grid=None) -> FigureTable:
    """Bell curves y/c = exp_q(-(x/c**((1-q)/2))**2) for several scales c,
    plus the deformed-log parabola.

    Sampled over a shared rescaled grid (default ``FIG3_GRID``: 501
    uniform points on [-5, 5]); the rescaled columns coincide across scales, and
    ``qlog_y`` = log_q(y_raw) = -x_raw**2 + log_q(c).
    """
    grid = np.linspace(*FIG3_GRID) if grid is None else grid
    return _scaled_family(q, scales, grid, 2, {"qlog_curvature": -1.0})
