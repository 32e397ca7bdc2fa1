"""The power-law system dy/dx = direction * y**q and its scale structure.

Under the deformed logarithm the system is linear,

    d(log_q y)/dx = direction,    log_q(y) = direction * x + log_q(scale),

so the full solution is a single bell/decay profile reparameterized by one
positive constant.  That constant -- the *rescale factor* -- is pinned by an
initial condition through log_q(scale) = log_q(y0) - x0, and the explicit
solution reads

    y(x) = scale * exp_q(direction * x / scale**(1-q)).

Two consequences are implemented and checkable here:

* rescaling invariance: y/scale over x/scale**(1-q) solves the same
  equation, so curves for different scales collapse onto one profile;
* shift/rescaling equivalence: a shift x -> x + c of the deformed
  exponential's argument is the same operation as rescaling both axes by
  (exp_q(c), 1 + (1-q)*c), the second factor being exp_q(c)**(1-q).

``integrate_ode`` samples that solution on a grid, in the q-log form anchored
at the initial condition: log_q y = log_q y0 + direction * (x - x0) is one
exp_q of a linear function of x with the fixed scale unit y0**(1-q).  A
fixed-step RK4 scheme checks it, as a private oracle of :mod:`qdeform.verify`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from ._array import _q_exp_array
from .core import (_check_all, _check_positive, _drop, _finite_or_overflow, _index_error,
                   check_index, q_exp, q_log)
from .errors import DomainViolation, NonPositiveArgument, RangeOverflow
from .tables import FigureTable, _scaled_family

__all__ = _EXPORTS["dynamics"]

FIG2_SCALES = (1.0, 10.0, 20.0)
FIG2_INDEX = 1.3
FIG2_GRID = (0.0, 5.0, 501)  # rescaled abscissas: min, max, points


def _direction_error(direction) -> ValueError:
    return ValueError(f"direction must be +1 or -1, got {direction!r}")


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution curve: strictly increasing x, strictly positive y."""

    xs: np.ndarray
    ys: np.ndarray
    q: float
    direction: float

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        ys = np.asarray(self.ys, dtype=float)
        if xs.shape != ys.shape or xs.ndim != 1:
            raise ValueError("xs and ys must be 1-d arrays of equal length")
        if xs.size and not np.all(np.diff(xs) > 0.0):
            raise ValueError("sample abscissas must be strictly increasing")
        if xs.size and not np.all(ys > 0.0):
            raise ValueError("sample values must be strictly positive")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)


def rescale_factor(q: float, x0: float, y0: float) -> float:
    """The positive constant with log_q(scale) = log_q(y0) - x0.

    ``rescale_factor(q, direction * x0, y0)`` is the scale unit of the
    solution through (x0, y0) for either direction, since the linear form
    log_q(y) = direction * x + log_q(scale) fixes it.  Raises
    :class:`DomainViolation` when no positive constant satisfies the
    relation, :class:`OverflowError` naming q, x0 and y0 when log_q(y0) - x0
    passes the largest double, and :class:`NonPositiveArgument` naming them
    when the constant underflows to 0.
    """
    q = check_index(q)
    y0 = _check_positive("y0", y0)
    arg = q_log(q, y0) - float(x0)
    if math.isinf(arg) and math.isfinite(x0):
        raise RangeOverflow("rescale_factor", q, f"x0={x0!r}, y0={y0!r}")
    if (scale := q_exp(q, arg)) > 0.0:
        return scale
    raise NonPositiveArgument(f"rescale_factor at q={q!r} (x0={x0!r}, y0={y0!r})", scale)


def analytic_solution(q: float, scale: float, direction, x: float) -> float:
    """Closed-form solution scale * exp_q(direction * x / scale**(1-q)); where
    scale**(1-q) passes the largest double, the bracket less 1 is divided twice
    by scale**((1-q)/2), or formed in logs where that passes it too.  The exp_q
    argument or a result past it raises :class:`OverflowError` naming q, scale
    and x; scale**(1-q) underflowed to 0 :class:`NonPositiveArgument` naming it.
    :func:`integrate_ode` is its array form anchored at (x0, y0): the scale y0
    at x - x0."""
    if not math.isfinite(q := float(q)):
        raise _index_error(q)
    if (d := float(direction)) not in (1.0, -1.0):
        raise _direction_error(direction)
    if not 0.0 < (s := float(scale)) < math.inf:
        raise NonPositiveArgument("scale", s)
    x = float(x)
    try:
        if not (x_scale := s ** (1.0 - q)) > 0.0:
            raise NonPositiveArgument("scale**(1-q)", x_scale)
        arg = d * x / x_scale
    except OverflowError:
        if not math.isfinite(x):
            raise ValueError(f"argument must be finite, got {x!r}") from None
        if (1.0 - q) * math.log(s) < 1418.0:  # t = scale**((1-q)/2) in (1e154, e**709)
            lift = (1.0 - q) / (t := s ** ((1.0 - q) / 2.0)) * (d * x / t)
        else:  # |lift| / |1-q| < e**-708: the log form's rounding never shows
            lift = 0.0 if x == 0.0 else math.copysign(math.exp(
                math.log(abs(1.0 - q)) + math.log(abs(x)) - (1.0 - q) * math.log(s)),
                (1.0 - q) * d * x)
        if lift <= -1.0:
            raise DomainViolation("exp_q argument outside domain", 1.0 + lift) from None
        value = s * _drop(q, lift)  # 1-q > 1 or 1-q < 0 here: _drop stays finite
    else:  # a finite x whose exp_q argument passed the largest double overflows
        value = math.inf if math.isinf(arg) and math.isfinite(x) else s * q_exp(q, arg)
    if value < math.inf:
        return value
    raise RangeOverflow("analytic_solution", q, f"scale={s!r}, x={x!r}")


def integrate_ode(q: float, x0: float, y0: float, direction, x_end: float,
                  step: float) -> Trajectory:
    """Trajectory of dy/dx = direction * y**q through (x0, y0) in closed form.

    On the grid x0 + i*h, its step shrunk to land on ``x_end``, y = y0 *
    exp_q(direction * (x - x0) / b0) with b0 = y0**(1-q): the q-log form
    log_q y = log_q y0 + direction * (x - x0), so any positive y0 at any x0
    starts.  A step below the spacing of doubles raises :class:`ValueError`
    naming step and x0; a point at or past the analytic boundary (growth with
    q > 1, decay with q < 1) exp_q's :class:`DomainViolation`, with its bracket
    and grid index.  b0, a step count, an exp_q argument or a value past the
    largest double raises :class:`OverflowError` naming q and x0, y0, or x0,
    x_end, step, or x (exp_q's own, the grid index); b0 or a value underflowed
    to 0 :class:`NonPositiveArgument` naming ``y0**(1-q)`` or x.
    """
    q = check_index(q)
    if (d := float(direction)) not in (1.0, -1.0):
        raise _direction_error(direction)
    x0, y0, x_end, step = float(x0), float(y0), float(x_end), float(step)
    for name, value in (("x0", x0), ("x_end", x_end)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if not (step > 0.0):
        raise ValueError(f"step must be positive, got {step!r}")
    if x_end <= x0:
        raise ValueError("x_end must exceed x0")

    y0 = _check_positive("y0", y0)
    b0 = _check_positive("y0**(1-q)", _finite_or_overflow(
        "integrate_ode", q, lambda: f"x={x0!r}, y={y0!r}", lambda: y0 ** (1.0 - q)))
    span = _finite_or_overflow("integrate_ode step count", q, lambda: (
        f"x0={x0!r}, x_end={x_end!r}, step={step!r}"), lambda: (x_end - x0) / step)
    n_steps = max(1, math.ceil(span))
    h = (x_end - x0) / n_steps
    with np.errstate(over="ignore"):
        xs = x0 + np.arange(n_steps + 1) * h  # x0 + i * h, as Python floats round it
        xs[0] = x0  # keeps the sign of a -0.0 start
        if not np.all(xs[1:] > xs[:-1]):
            raise ValueError("step must exceed the spacing of doubles between x0 and x_end, "
                             f"got {step!r} with x0={x0!r}")
        args = d * (xs - x0) / b0  # exp_q's bracket 1 + (1-q)*args is the domain guard
        _check_all(np.isfinite(args), lambda i: RangeOverflow(
            "integrate_ode", q, f"exp_q argument at x={float(xs[i])!r}"))
        ys = y0 * _q_exp_array(q, args)
    _check_all(ys < math.inf, lambda i: RangeOverflow("integrate_ode", q, f"x={float(xs[i])!r}"))
    _check_all(ys > 0.0, lambda i: NonPositiveArgument(
        f"integrate_ode at q={q!r} (x={float(xs[i])!r})", 0.0))
    return Trajectory(xs=xs, ys=ys, q=q, direction=d)


def shift_expansion(q: float, shift: float):
    """Axis rescaling equivalent to the argument shift x -> x + shift.

    Returns (y_scale, x_scale) = (exp_q(shift), 1 + (1-q)*shift) with

        exp_q(x + shift) = y_scale * exp_q(x / x_scale)

    for every x where both sides are defined, given 1 + (1-q)*shift > 0;
    exp_q(shift) underflowed to 0 raises :class:`NonPositiveArgument` (``y_scale``)."""
    if not (y_scale := q_exp(q, shift)) > 0.0:
        raise NonPositiveArgument("y_scale", y_scale)
    return y_scale, 1.0 + (1.0 - float(q)) * float(shift)  # q_exp_bracket, inline for speed


def compose_shifts(q: float, shift1: float, shift2: float):
    """Axis rescaling accumulated by two successive argument shifts.

    The second shift acts in the already-rescaled coordinates, so the
    factors multiply:

        (y_scale, x_scale) = (exp_q(c1) * exp_q(c2), (1 + (1-q)*c1) * (1 + (1-q)*c2)).

    For q != 1 this is *not* the single-shift expansion of c1 + c2: the
    composition equals ``shift_expansion(q, c1 + c2 + (1-q)*c1*c2)``
    exactly, because c2 is measured in the scale unit left behind by c1.
    A product past the largest double raises :class:`OverflowError` naming
    q and both shifts, and a y_scale product underflowed to 0
    :class:`NonPositiveArgument` naming ``y_scale``; each x_scale factor is
    its shift's bracket, at least 2**-53, so theirs cannot underflow.
    """
    q = float(q)  # shift_expansion checks it
    y1, x1 = shift_expansion(q, shift1)
    y2, x2 = shift_expansion(q, shift2)
    y_scale, x_scale = y1 * y2, x1 * x2
    if max(y_scale, x_scale) == math.inf:
        raise RangeOverflow("compose_shifts", q, f"shift1={shift1!r}, shift2={shift2!r}")
    return _check_positive("y_scale", y_scale), x_scale


def fig2_data(scales=FIG2_SCALES, q: float = FIG2_INDEX, grid=None) -> FigureTable:
    """Decay curves for several rescale factors, plus their deformed-log line.

    For each scale C the raw curve y(x) = C * exp_q(-x / C**(1-q)) is
    sampled over a shared *rescaled* grid (default ``FIG2_GRID``: 501
    uniform points on [0, 5]); the rescaled columns (x/C**(1-q), y/C) are
    that grid and one profile exp_q(-grid), the same for every scale.
    ``qlog_y`` is the deformed log of the raw curve and satisfies
    qlog_y = -x_raw + log_q(C) (slope -1, intercept log_q(C)).
    """
    grid = np.linspace(*FIG2_GRID) if grid is None else grid
    return _scaled_family(q, scales, grid, 1, {"direction": -1.0, "qlog_slope": -1.0})
