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
at the initial condition, log_q y = log_q y0 + direction * (x - x0); a point
outside the normal doubles is ``analytic_solution``'s, the one range policy.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from ._array import _drop_array
from .core import (_check_positive, _finite_or_overflow, _index_error, _log1p_past, check_index,
                   q_exp, q_log)
from .errors import DomainViolation, NonPositiveArgument, RangeOverflow
from .tables import FigureTable, _scaled_family

__all__ = _EXPORTS["dynamics"]

FIG2_SCALES = (1.0, 10.0, 20.0)
FIG2_INDEX = 1.3
FIG2_GRID = (0.0, 5.0, 501)  # rescaled abscissas: min, max, points
_NORMAL = sys.float_info.min  # the smallest normal double


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
    """Closed-form solution scale * exp_q(direction * x / scale**(1-q)), taken as
    ln y = ln scale + log1p(L)/(1-q), L the bracket less 1, where scale**(1-q),
    exp_q's factor or y is not a normal double.  A bracket at or below 0 raises
    :class:`DomainViolation`, y past the largest double :class:`OverflowError`,
    and y that rounds to 0 :class:`NonPositiveArgument`, naming q, scale and x.
    :func:`integrate_ode` is its array form: the scale y0 at x - x0."""
    if not math.isfinite(q := float(q)):
        raise _index_error(q)
    if (d := float(direction)) not in (1.0, -1.0):
        raise _direction_error(direction)
    if not 0.0 < (s := float(scale)) < math.inf:
        raise NonPositiveArgument("scale", s)
    x = float(x)
    try:
        if (x_scale := s ** (1.0 - q)) >= _NORMAL and (factor := q_exp(
                q, d * x / x_scale)) >= _NORMAL and 0.0 < (value := s * factor) < math.inf:
            return value
    except (OverflowError, ValueError):  # scale**(1-q) or exp_q's factor past the largest
        pass  # double, or exp_q's argument not finite or out of its domain: the logs decide
    if not math.isfinite(x):  # named as exp_q's argument, of the sign of d * x
        raise ValueError(f"argument must be finite, got {d * x!r}")
    if q == 1.0:
        ln_factor = d * x
    elif x == 0.0 or (1.0 - q) * (ln_s := math.log(s)) > 1418.0:  # y = s: |L/(1-q)| < e**-708
        return s
    else:
        lift = ((1.0 - q) / t * (d * x / t) if (t := s ** ((1.0 - q) / 2.0)) >= _NORMAL
                else math.copysign(math.inf, (1.0 - q) * d * x))  # |L| > e**672, from its log
        if lift <= -1.0:
            raise DomainViolation("exp_q argument outside domain", 1.0 + lift)
        ln_lift = math.log(abs(1.0 - q)) + math.log(abs(x))  # ln|L| + (1-q) ln s
        if (1.0 - q) * ln_s == -math.inf:  # L = inf, log1p(1/L) = 0: ln s cancels out of ln y
            return math.exp(ln_lift / (1.0 - q))
        ln_factor = _log1p_past(lift, ln_lift - (1.0 - q) * ln_s) / (1.0 - q)
    if -708.0 < ln_factor < 709.0 and _NORMAL <= (value := s * math.exp(ln_factor)) < math.inf:
        return value
    # in logs, where scale and factor apart leave the normal doubles and their product need not
    # (default arguments, not closure cells, which would slow every call of the fast path)
    if (value := _finite_or_overflow("analytic_solution", q, lambda s=s, x=x: (
            f"scale={s!r}, x={x!r}"), lambda ln_y=math.log(s) + ln_factor: math.exp(ln_y))) > 0.0:
        return value
    raise NonPositiveArgument(f"analytic_solution at q={q!r} (scale={s!r}, x={x!r})", value)


def integrate_ode(q: float, x0: float, y0: float, direction, x_end: float,
                  step: float) -> Trajectory:
    """Trajectory of dy/dx = direction * y**q through (x0, y0) in closed form.

    On the grid x0 + i*h, its step shrunk to land on ``x_end`` and no point
    past it, y = y0 * exp_q(direction * (x - x0) / y0**(1-q)): the q-log form
    log_q y = log_q y0 + direction * (x - x0), so any positive y0 at any x0
    starts.  Where y0**(1-q), exp_q's factor or y is not a normal double, y
    is ``analytic_solution(q, y0, direction, x - x0)``, with its errors and
    the grid index on its :class:`DomainViolation`.  A step below the spacing
    of doubles raises :class:`ValueError` naming step and x0, and a grid no
    array holds :class:`OverflowError` naming q, x0, x_end and step.
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
    try:
        if not (span := (x_end - x0) / step) < sys.maxsize / 8:  # also inf and nan: no array
            raise MemoryError  # holds such a grid, and np.arange returns [] for some counts
        h = (x_end - x0) / (n_steps := max(1, math.ceil(span)))
        with np.errstate(all="ignore"):
            xs = x0 + np.arange(n_steps + 1) * h  # x0 + i * h, as Python floats round it
            xs[0], xs[-1] = x0, min(xs[-1], x_end)  # keeps the sign of a -0.0 start
            if not np.all(xs[1:] > xs[:-1]):
                raise ValueError("step must exceed the spacing of doubles between x0 and x_end, "
                                 f"got {step!r} with x0={x0!r}")
            b0 = np.float64(y0) ** (1.0 - q)
            u = d * (xs - x0) / (b0 if _NORMAL <= b0 < math.inf else math.nan)
            ys = y0 * (factor := np.exp(u) if q == 1.0 else _drop_array(q, (1.0 - q) * u))
            redo = ~((factor >= _NORMAL) & (ys >= _NORMAL) & (ys < math.inf))
    except MemoryError:
        raise RangeOverflow("integrate_ode step count", q,
                            f"x0={x0!r}, x_end={x_end!r}, step={step!r}") from None
    for i in np.flatnonzero(redo).tolist():
        try:
            ys[i] = analytic_solution(q, y0, d, xs[i] - x0)
        except DomainViolation as err:
            raise DomainViolation("exp_q argument outside domain", err.constraint,
                                  index=i) from None
    return Trajectory(xs=xs, ys=ys, q=q, direction=d)


def shift_expansion(q: float, shift: float):
    """Axis rescaling equivalent to the argument shift x -> x + shift.

    Returns (y_scale, x_scale) = (exp_q(shift), 1 + (1-q)*shift) with

        exp_q(x + shift) = y_scale * exp_q(x / x_scale)

    for every x where both sides are defined, given 1 + (1-q)*shift > 0;
    exp_q(shift) underflowed to 0 raises :class:`NonPositiveArgument` (``y_scale``),
    and a bracket past the largest double :class:`OverflowError` naming q and shift."""
    if not (y_scale := q_exp(q, shift)) > 0.0:
        raise NonPositiveArgument("y_scale", y_scale)
    if (x_scale := 1.0 + (1.0 - float(q)) * float(shift)) == math.inf:  # q_exp_bracket, inline
        raise RangeOverflow("bracket 1 + (1-q)*shift", float(q), f"shift={float(shift)!r}")
    return y_scale, x_scale


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
