"""Deformed Gaussian densities, their likelihood, and frequency rescaling.

A location family whose deformed log-likelihood L(theta) = sum_i log_q
f(x_i - theta) peaks at the sample mean for every sample must have a bell
density whose deformed log is an exact downward parabola, log_q f(e) =
ode_coeff * e**2 / 2 + log_offset with ode_coeff < 0, equivalently
f'(e)/f(e)**q = ode_coeff * e.  Normalized, it is

    pdf(e) = exp_q(-beta * e**2) / Z,    beta = -ode_coeff / (2 * (1 + (1-q) * log_offset)),

for q < 3: compact support |e| < 1/sqrt(beta*(1-q)) below q = 1,
power-law tails ~ |e|**(-2/(q-1)) above.  ``log_offset`` stays an explicit
model parameter: it sets the scale c = exp_q(log_offset) of the frequency
curve, and every emitted table records the scale it was computed at.  Z has
the closed Gamma-function form C_q / sqrt(beta) (Umarov, Tsallis &
Steinberg, Milan J. Math. 76 (2008) 307).

The likelihood never forms the density.  By log_q(y/x) = x**(q-1) (log_q y - log_q x),

    log_q pdf(e) = Z**(q-1) * (-beta * e**2 - log_q Z),
    L(theta)     = Z**(q-1) * (-beta * sum_i (x_i - theta)**2 - n * log_q Z),

an exact parabola with its vertex at the sample mean and curvature
-2 n beta Z**(q-1) (Suyari & Tsukada, IEEE Trans. Inf. Theory 51 (2005)
753).  No density is formed, so none underflows: at q = 1 a sample 40
widths out adds its finite -beta e**2 - ln Z.  ``verify`` integrates the
density and sums log_q pdf sample by sample as its checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _EXPORTS
from ._array import _check_finite, _q_exp_array
from .core import (_check_all, _check_finite_scalar, _check_positive, _finite_or_overflow,
                   check_index, q_exp, q_exp_bracket, q_log)
from .errors import DomainViolation, RangeOverflow, UnnormalizableModel
from .tables import FigureTable, _scaled_family

__all__ = _EXPORTS["qgaussian"]

FIG3_SCALES = (1.0, 10.0, 100.0)
FIG3_INDEX = 1.7
FIG3_GRID = (-5.0, 5.0, 501)  # rescaled abscissas: min, max, points


def beta_from(q: float, ode_coeff: float, log_offset: float) -> float:
    """Width coefficient -ode_coeff / (2 * (1 + (1-q) * log_offset)).

    Positive whenever ode_coeff < 0 and the offset bracket is positive;
    raises :class:`NonPositiveArgument` naming -ode_coeff when ode_coeff is
    not a negative finite real, :class:`ValueError` naming a non-finite
    log_offset, :class:`DomainViolation` when the bracket fails, and
    :class:`~qdeform.errors.RangeOverflow` when a bracket near 0 carries the
    width past the largest double, or when twice the bracket, or the
    reciprocal width 2 * bracket / -ode_coeff, passes it, where the width
    would read 0.
    """
    q = check_index(q)
    ode_coeff = -_check_positive("-ode_coeff", -float(ode_coeff))
    log_offset = _check_finite_scalar("log_offset", log_offset)
    if not (w := q_exp_bracket(q, log_offset)) > 0.0:
        raise DomainViolation("offset bracket 1 + (1-q)*log_offset", w)
    if 2.0 * w == math.inf:  # the width would read 0
        raise RangeOverflow("2 * (1 + (1-q)*log_offset)", q, f"log_offset={log_offset!r}")
    beta = -ode_coeff / (2.0 * w)
    where = f"ode_coeff={ode_coeff!r}, log_offset={log_offset!r}"
    if beta == math.inf:
        raise RangeOverflow("beta", q, where)
    if beta == 0.0:  # the width underflowed: its reciprocal is past the largest double
        raise RangeOverflow("2 * (1 + (1-q)*log_offset) / -ode_coeff", q, where)
    return beta


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
    beta = _check_positive("beta", beta)
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
        """Model with the given width coefficient and zero log offset.  A
        beta whose ode_coeff = -2 beta passes the largest double raises
        :class:`~qdeform.errors.RangeOverflow` naming beta."""
        q = check_index(q)
        beta = _check_positive("beta", beta)
        ode_coeff = -2.0 * beta
        if ode_coeff == -math.inf:
            raise RangeOverflow("ode_coeff = -2*beta", q, f"beta={beta!r}")
        return cls(q=q, ode_coeff=ode_coeff, log_offset=0.0)

    def support_halfwidth(self) -> float:
        """Half-width of the support: finite only for q < 1."""
        if self.q >= 1.0:
            return math.inf
        return 1.0 / math.sqrt(self.beta * (1.0 - self.q))


def q_gaussian_pdf(model: QGaussianModel, e: float) -> float:
    """Normalized density exp_q(-beta * e**2) / norm.

    Outside the compact support (q < 1) the density is 0 by the continuous
    cutoff extension -- the natural convention in a density context.  Where
    beta * e**2 passes the largest double, the density is 0 up to q = 1
    (past the cutoff, or below the smallest double); above q = 1 it is the
    power-law tail ((q-1) beta e**2)**(-1/(q-1)) / norm, taken in logs, as
    the 1 of the bracket is below rounding there.  It is still a nonzero
    double from about q = 1.96 on.  A non-finite e raises :class:`ValueError`.
    """
    e = float(e)
    try:
        return q_exp(model.q, -model.beta * e * e, cutoff=True) / model.norm
    except ValueError:  # -beta * e**2 = -inf, or e itself not finite (named here)
        _check_finite_scalar("e", e)
    q = model.q
    if q <= 1.0:
        return 0.0
    log_x = math.log(q - 1.0) + math.log(model.beta) + 2.0 * math.log(abs(e))
    return math.exp(-log_x / (q - 1.0) - math.log(model.norm))


def _deviations(model: QGaussianModel, samples, theta):
    """theta (the sample mean when None) and the deviations x_i - theta, all
    inside the support, 1 - (1-q) beta e**2 > 0 below q = 1: a sample
    outside raises :class:`DomainViolation`."""
    xs = np.asarray(samples, dtype=float)
    if xs.ndim != 1 or not xs.size:
        raise ValueError("samples must be non-empty")
    _check_finite("samples", xs)
    if theta is None:  # finite samples whose sum may pass the largest double
        theta = _finite_or_overflow("sample mean", model.q, lambda: f"{xs.size} samples",
                                    lambda: math.fsum(xs.tolist()) / xs.size)
    theta = _check_finite_scalar("theta", theta)
    # a deviation past the largest double lies outside any compact support,
    # and from q = 1 on it overflows the sum of squares, which names it
    with np.errstate(over="ignore"):
        e = xs - theta
        if model.q >= 1.0:
            return theta, e
        bracket = q_exp_bracket(model.q, -model.beta * e * e)
    _check_all(bracket > 0.0, lambda i: DomainViolation(
        f"sample {i} outside the density support", float(bracket[i]), index=i))
    return theta, e


def q_log_likelihood(model: QGaussianModel, theta: float, samples) -> float:
    """Deformed log-likelihood sum_i log_q pdf(x_i - theta): the parabola of
    the module docstring.

    A sample outside the support (possible only for q < 1) raises
    :class:`DomainViolation` naming the sample.  A non-finite theta or
    sample raises :class:`ValueError`, and a sum past the largest double
    :class:`~qdeform.errors.RangeOverflow`.
    """
    theta, e = _deviations(model, samples, theta)
    q = model.q
    with np.errstate(over="ignore"):
        squares = (e * e).tolist()
    # Z**(q-1) or finite squares whose sum passes the largest double
    return _finite_or_overflow(
        "q_log_likelihood", q, lambda: f"theta={theta!r}, {e.size} samples",
        lambda: model.norm ** (q - 1.0) * (-model.beta * math.fsum(squares)
                                           - e.size * q_log(q, model.norm)))


def mlp_stationarity(model: QGaussianModel, samples):
    """Exact (gradient, curvature) of the likelihood at theta* = mean(samples):
    2 beta Z**(q-1) * sum_i (x_i - theta*), zero up to the rounding of the
    mean, and -2 n beta Z**(q-1) < 0.  A sample outside the support raises
    :class:`DomainViolation`, as in :func:`q_log_likelihood`.
    """
    _, e = _deviations(model, samples, None)
    try:
        slope = 2.0 * model.beta * model.norm ** (model.q - 1.0)
        gradient, curvature = slope * math.fsum(e.tolist()), -e.size * slope
    except (OverflowError, ValueError):  # Z**(q-1) or deviations past the largest double
        gradient = curvature = math.inf
    if not (math.isfinite(gradient) and math.isfinite(curvature)):
        raise RangeOverflow("mlp_stationarity", model.q, f"{e.size} samples")
    return gradient, curvature


def frequency_rescale(q: float, gamma: float, log_offset: float, grid) -> FigureTable:
    """Frequency curve f(e) = exp_q(-gamma * e**2 + log_offset) and its
    per-scale rescaling.

    ``grid`` is the rescaled abscissa column itself; raw points are
    e = grid * sqrt(1 + (1-q)*log_offset), the square root of the x-scale
    of scale = exp_q(log_offset).  f is computed from its raw form, so its
    rescaled ordinates f(e)/scale are a measurement to compare with the
    scale-free reference exp_q(-gamma * grid**2); both scales are kept in
    the metadata.  A non-finite log_offset or grid point raises
    :class:`ValueError` naming it, and a bracket 1 + (1-q)*log_offset past
    the largest double :class:`OverflowError` naming q and log_offset.
    """
    q = check_index(q)
    gamma = _check_positive("gamma", gamma)
    log_offset = _check_finite_scalar("log_offset", log_offset)
    scale = _check_positive("scale", q_exp(q, log_offset))
    if (bracket := q_exp_bracket(q, log_offset)) == math.inf:
        raise RangeOverflow("bracket 1 + (1-q)*log_offset", q, f"log_offset={log_offset!r}")
    x_scale = math.sqrt(bracket)
    # a copy: the table marks it read-only
    grid = _check_finite("grid", np.array(grid, dtype=float))

    def q_exp_of(argument):
        # a non-finite argument of the finite grid passed the largest double
        _check_all(np.isfinite(argument), lambda i: RangeOverflow(
            "frequency argument", q, f"grid[{i}]={float(grid[i])!r}, gamma={gamma!r}, "
            f"log_offset={log_offset!r}"))
        return _q_exp_array(q, argument)

    with np.errstate(over="ignore"):
        e_raw = grid * x_scale
        f_raw = q_exp_of(-gamma * e_raw * e_raw + log_offset)
        reference = q_exp_of(-gamma * grid * grid)
    meta = {"q": q, "gamma": gamma, "log_offset": log_offset,
            "scale": scale, "x_scale": x_scale}
    return FigureTable(("e_raw", "f_raw", "e_rescaled", "f_rescaled", "reference"),
                       ((e_raw, f_raw, grid, f_raw / scale, reference),), meta)


def fig3_data(scales=FIG3_SCALES, q: float = FIG3_INDEX, grid=None) -> FigureTable:
    """Bell curves y/c = exp_q(-(x/c**((1-q)/2))**2) for several scales c,
    plus the deformed-log parabola.

    Sampled over a shared rescaled grid (default ``FIG3_GRID``: 501
    uniform points on [-5, 5]); the rescaled columns are that grid and one
    profile exp_q(-grid**2), and ``qlog_y`` = log_q(y_raw) = -x_raw**2 + log_q(c).
    """
    grid = np.linspace(*FIG3_GRID) if grid is None else grid
    return _scaled_family(q, scales, grid, 2, {"qlog_curvature": -1.0})
