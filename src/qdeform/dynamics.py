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

``integrate_ode`` is a deliberately plain fixed-step fourth-order
Runge-Kutta scheme: it exists to cross-check the closed form, so it must be
simple enough to audit independently.  Its loop steps y alone: the
abscissas and the analytic domain guard do not depend on y, so each is one
array expression evaluated before the first step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from .core import (_check_positive, _drop, _finite_or_overflow, _index_error, check_index,
                   q_exp, q_log)
from .errors import BlowupDetected, DomainViolation, NonPositiveArgument, RangeOverflow
from .tables import FigureTable, _scaled_family

__all__ = _EXPORTS["dynamics"]

FIG2_SCALES = (1.0, 10.0, 20.0)
FIG2_INDEX = 1.3
FIG2_GRID = (0.0, 5.0, 501)  # rescaled abscissas: min, max, points
Y_MAX = 1e12  # integrate_ode stops once y reaches this


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
    and x; scale**(1-q) underflowed to 0 :class:`NonPositiveArgument` naming it."""
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
    """Fixed-step classical RK4 trajectory of dy/dx = direction * y**q, its
    four textbook stages written out in a loop that carries y alone.

    The step is shrunk uniformly so the grid lands on ``x_end`` exactly; the
    grid x0 + i*h and the domain guard at each step's end are computed as
    arrays before the first step, and the direction is folded into the step
    sizes.  A step below the spacing of doubles, whose abscissas would
    repeat, raises :class:`ValueError` naming step and x0.
    The guard is the bracket of the solution through (x0, y0) in q-log form,
    log_q y = log_q y0 + direction * (x - x0): 1 + (1-q) * direction *
    (x - x0) / b0 with b0 = y0**(1-q), so any positive y0 at any x0 starts.
    Integration aborts with :class:`BlowupDetected` when y or a stage leaves
    (0, ``Y_MAX``) or when that bracket is about to drop below 1e-12, which
    happens in finite x for the growing branch with q > 1 and the decaying
    branch with q < 1.  b0, a step count or a stage y**q past the largest
    double raises :class:`OverflowError` naming q and x0, y0, or x0, x_end,
    step, or the step's x, y; b0 underflowed to 0 raises
    :class:`NonPositiveArgument` naming ``y0**(1-q)``.
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
    with np.errstate(over="ignore", invalid="ignore"):
        xs = x0 + np.arange(n_steps + 1) * h  # x0 + i * h, as Python floats round it
        xs[0] = x0  # keeps the sign of a -0.0 start
        if not np.all(xs[1:] > xs[:-1]):
            raise ValueError("step must exceed the spacing of doubles between x0 and x_end, "
                             f"got {step!r} with x0={x0!r}")
        # the analytic domain guard at each step's end, relative to b0; at
        # q = 1 it is 1 (or NaN past the largest double), so it never fires
        guard = 1.0 + (1.0 - q) * (d * (xs[1:] - x0) / b0) < 1e-12
    stop = int(guard.argmax()) if guard.any() else n_steps
    dh, dhalf, dsixth = d * h, d * (0.5 * h), d * (h / 6.0)  # (d*c)*k == c*(d*k) for d = +-1
    stage_left = "intermediate stage left (0, y_max)"
    ys, y = [y0], y0
    try:
        for i in range(stop):
            k1 = y ** q  # y > 0: y0 is checked, and each step's y below
            if (stage := y + dhalf * k1) <= 0.0:
                raise BlowupDetected(x0 + i * h, stage, stage_left)
            k2 = stage ** q
            if (stage := y + dhalf * k2) <= 0.0:
                raise BlowupDetected(x0 + i * h, stage, stage_left)
            k3 = stage ** q
            if (stage := y + dh * k3) <= 0.0:
                raise BlowupDetected(x0 + i * h, stage, stage_left)
            y = y + dsixth * (k1 + 2.0 * k2 + 2.0 * k3 + stage ** q)
            if not (0.0 < y < Y_MAX):
                raise BlowupDetected(x0 + (i + 1) * h, y, "solution left (0, y_max)")
            ys.append(y)
    except OverflowError:  # a stage's y**q
        raise RangeOverflow("integrate_ode", q, f"x={x0 + i * h!r}, y={y!r}") from None
    if stop < n_steps:
        raise BlowupDetected(float(xs[stop + 1]), y, "analytic domain boundary reached")
    return Trajectory(xs=xs, ys=np.asarray(ys), q=q, direction=d)


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
