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
  (exp_q(c), exp_q(c)**(1-q)).

``integrate_ode`` is a deliberately plain fixed-step fourth-order
Runge-Kutta scheme: it exists to cross-check the closed form, so it must be
simple enough to audit independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from .core import _check_positive, check_index, q_exp, q_log
from .errors import BlowupDetected, RangeOverflow
from .tables import FigureTable, _scaled_family

__all__ = _EXPORTS["dynamics"]

FIG2_SCALES = (1.0, 10.0, 20.0)
FIG2_INDEX = 1.3
FIG2_GRID = (0.0, 5.0, 501)  # rescaled abscissas: min, max, points
Y_MAX = 1e12  # integrate_ode stops once y reaches this


def _check_direction(direction) -> float:
    d = float(direction)
    if d not in (1.0, -1.0):
        raise ValueError(f"direction must be +1 or -1, got {direction!r}")
    return d


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
    relation, and :class:`OverflowError` naming q, x0 and y0 when
    log_q(y0) - x0 passes the largest double.
    """
    q = check_index(q)
    y0 = _check_positive("y0", y0)
    arg = q_log(q, y0) - float(x0)
    if math.isinf(arg) and math.isfinite(x0):
        raise RangeOverflow("rescale_factor", q, f"x0={x0!r}, y0={y0!r}")
    return q_exp(q, arg)


def analytic_solution(q: float, scale: float, direction, x: float) -> float:
    """Closed-form solution scale * exp_q(direction * x / scale**(1-q)).
    scale**(1-q), the argument of exp_q or a result past the largest double
    raises :class:`OverflowError` naming q, scale and x; scale**(1-q)
    underflowed to 0 raises :class:`NonPositiveArgument` naming it."""
    q = check_index(q)
    d = _check_direction(direction)
    s = _check_positive("scale", scale)
    x = float(x)
    try:
        arg = d * x / _check_positive("scale**(1-q)", s ** (1.0 - q))
    except OverflowError:
        arg = math.inf
    # a finite x whose exp_q argument passed the largest double overflows
    value = math.inf if math.isinf(arg) and math.isfinite(x) else s * q_exp(q, arg)
    if value < math.inf:
        return value
    raise RangeOverflow("analytic_solution", q, f"scale={s!r}, x={x!r}")


def integrate_ode(q: float, x0: float, y0: float, direction, x_end: float,
                  step: float) -> Trajectory:
    """Fixed-step classical RK4 trajectory of dy/dx = direction * y**q, its
    four textbook stages written out in the loop.

    The step is shrunk uniformly so the grid lands on ``x_end`` exactly.
    Integration aborts with :class:`BlowupDetected` when y or a stage leaves
    (0, ``Y_MAX``) or when the analytic domain boundary for this initial
    condition is about to be crossed (bracket below 1e-12), which happens in
    finite x for the growing branch with q > 1 and for the decaying branch
    with q < 1.  A step count or a stage y**q past the largest double raises
    :class:`OverflowError` naming q and x0, x_end, step or the step's x, y;
    scale**(1-q) underflowed to 0 raises :class:`NonPositiveArgument`.
    """
    q = check_index(q)
    d = _check_direction(direction)
    x0, y0, x_end = float(x0), float(y0), float(x_end)
    step = float(step)
    for name, value in (("x0", x0), ("x_end", x_end)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if not (step > 0.0):
        raise ValueError(f"step must be positive, got {step!r}")
    if x_end <= x0:
        raise ValueError("x_end must exceed x0")

    # Domain guard constants from the solution through (x0, y0); checks y0.
    scale = rescale_factor(q, d * x0, y0)
    try:  # the factor analytic_solution divides by; 0 ** (1-q) raises for q > 1
        scale_pow = _check_positive("scale**(1-q)", scale ** (1.0 - q) if scale or q <= 1.0 else 0.0)
    except OverflowError:
        raise RangeOverflow("integrate_ode", q, f"x={x0!r}, y={y0!r}") from None
    if not (span := (x_end - x0) / step) < math.inf:
        raise RangeOverflow("integrate_ode step count", q,
                            f"x0={x0!r}, x_end={x_end!r}, step={step!r}")
    n_steps = max(1, math.ceil(span))
    h = (x_end - x0) / n_steps
    half, sixth = 0.5 * h, h / 6.0
    stage_left = "intermediate stage left (0, y_max)"
    xs, ys, y = [x0], [y0], y0
    try:
        for i in range(n_steps):
            x_next = x0 + (i + 1) * h
            if q != 1.0 and 1.0 + (1.0 - q) * (d * x_next / scale_pow) < 1e-12:
                raise BlowupDetected(x_next, y, "analytic domain boundary reached")
            k1 = d * y ** q  # y > 0: y0 is checked, and each step's y below
            if (stage := y + half * k1) <= 0.0:
                raise BlowupDetected(x0 + i * h, stage, stage_left)
            k2 = d * stage ** q
            if (stage := y + half * k2) <= 0.0:
                raise BlowupDetected(x0 + i * h, stage, stage_left)
            k3 = d * stage ** q
            if (stage := y + h * k3) <= 0.0:
                raise BlowupDetected(x0 + i * h, stage, stage_left)
            k4 = d * stage ** q
            y = y + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not (0.0 < y < Y_MAX):
                raise BlowupDetected(x_next, y, "solution left (0, y_max)")
            xs.append(x_next)
            ys.append(y)
    except OverflowError:  # a stage's y**q
        raise RangeOverflow("integrate_ode", q, f"x={x0 + i * h!r}, y={y!r}") from None
    return Trajectory(xs=np.asarray(xs), ys=np.asarray(ys), q=q, direction=d)


def shift_expansion(q: float, shift: float):
    """Axis rescaling equivalent to the argument shift x -> x + shift.

    Returns (y_scale, x_scale) = (exp_q(shift), exp_q(shift)**(1-q)) with

        exp_q(x + shift) = y_scale * exp_q(x / x_scale)

    for every x where both sides are defined.  Requires the shift itself to
    satisfy 1 + (1-q)*shift > 0, and exp_q(shift) not to underflow to 0
    (:class:`NonPositiveArgument` naming ``y_scale`` otherwise).  An
    x_scale past the largest double raises :class:`OverflowError`."""
    q = float(q)  # q_exp checks it
    y_scale = _check_positive("y_scale", q_exp(q, shift))
    try:
        return y_scale, y_scale ** (1.0 - q)
    except OverflowError:
        raise RangeOverflow("shift_expansion", q, f"shift={shift!r}") from None


def compose_shifts(q: float, shift1: float, shift2: float):
    """Axis rescaling accumulated by two successive argument shifts.

    The second shift acts in the already-rescaled coordinates, so the
    factors multiply:

        (y_scale, x_scale) = (exp_q(c1) * exp_q(c2),
                              exp_q(c1)**(1-q) * exp_q(c2)**(1-q)).

    For q != 1 this is *not* the single-shift expansion of c1 + c2: the
    composition equals ``shift_expansion(q, c1 + c2 + (1-q)*c1*c2)``
    exactly, because c2 is measured in the scale unit left behind by c1.
    A product past the largest double raises :class:`OverflowError` naming
    q and both shifts; a y_scale product underflowed to 0 raises
    :class:`NonPositiveArgument` naming ``y_scale``, as :func:`shift_expansion`
    does.  (Each x_scale factor is its shift's bracket, at least 2**-53, so
    their product cannot underflow.)
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
