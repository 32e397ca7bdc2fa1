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

from .core import check_index, q_exp, q_exp_bracket, q_log
from .errors import BlowupDetected, NonPositiveArgument
from .tables import FigureTable, _scaled_family

__all__ = [
    "Trajectory",
    "rescale_factor",
    "analytic_solution",
    "q_log_line",
    "integrate_ode",
    "shift_expansion",
    "compose_shifts",
    "fig2_data",
]

FIG2_SCALES = (1.0, 10.0, 20.0)
FIG2_INDEX = 1.3
FIG2_GRID = (0.0, 5.0, 501)  # rescaled abscissas: min, max, points


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

    Fixes the scale unit the growing-branch solution is measured in; raises
    :class:`DomainViolation` when no positive constant satisfies the
    relation.
    """
    q = check_index(q)
    if not (float(y0) > 0.0) or not math.isfinite(float(y0)):
        raise NonPositiveArgument("y0", y0)
    return q_exp(q, q_log(q, y0) - float(x0))


def analytic_solution(q: float, scale: float, direction, x: float) -> float:
    """Closed-form solution scale * exp_q(direction * x / scale**(1-q))."""
    q = check_index(q)
    d = _check_direction(direction)
    s = float(scale)
    if not (s > 0.0) or not math.isfinite(s):
        raise NonPositiveArgument("scale", s)
    return s * q_exp(q, d * float(x) / s ** (1.0 - q))


def q_log_line(q: float, scale: float, direction, xs):
    """Points (x, log_q y) of the solution, computed from the linear form.

    The values satisfy log_q(y) = direction * x + log_q(scale) exactly by
    construction (slope ``direction``, intercept ``log_q(scale)``); they are
    not obtained by taking the deformed log of the solution.
    """
    q = check_index(q)
    d = _check_direction(direction)
    s = float(scale)
    if not (s > 0.0) or not math.isfinite(s):
        raise NonPositiveArgument("scale", s)
    intercept = q_log(q, s)
    return [(float(x), d * float(x) + intercept) for x in xs]


def integrate_ode(q: float, x0: float, y0: float, direction, x_end: float,
                  step: float, y_max: float = 1e12) -> Trajectory:
    """Fixed-step classical RK4 trajectory of dy/dx = direction * y**q.

    The step is shrunk uniformly so the grid lands on ``x_end`` exactly.
    Integration aborts with :class:`BlowupDetected` when y leaves
    (0, y_max) or when the analytic domain boundary for this initial
    condition is about to be crossed (bracket below 1e-12), which happens in
    finite x for the growing branch with q > 1 and for the decaying branch
    with q < 1.
    """
    q = check_index(q)
    d = _check_direction(direction)
    x0, y0, x_end = float(x0), float(y0), float(x_end)
    step = float(step)
    if not (step > 0.0):
        raise ValueError(f"step must be positive, got {step!r}")
    if not (y0 > 0.0) or not math.isfinite(y0):
        raise NonPositiveArgument("y0", y0)
    if x_end <= x0:
        raise ValueError("x_end must exceed x0")

    # Domain guard constants from the solution through (x0, y0).
    scale = q_exp(q, q_log(q, y0) - d * x0)
    scale_pow = scale ** (1.0 - q)

    def rhs(y: float) -> float:
        return d * y ** q

    n_steps = max(1, math.ceil((x_end - x0) / step))
    h = (x_end - x0) / n_steps
    xs = [x0]
    ys = [y0]
    y = y0
    for i in range(n_steps):
        x = x0 + i * h
        x_next = x0 + (i + 1) * h
        if q != 1.0 and q_exp_bracket(q, d * x_next / scale_pow) < 1e-12:
            raise BlowupDetected(x_next, y, "analytic domain boundary reached")
        k1 = rhs(y)
        y2 = y + 0.5 * h * k1
        if y2 <= 0.0:
            raise BlowupDetected(x, y2, "intermediate stage left (0, y_max)")
        k2 = rhs(y2)
        y3 = y + 0.5 * h * k2
        if y3 <= 0.0:
            raise BlowupDetected(x, y3, "intermediate stage left (0, y_max)")
        k3 = rhs(y3)
        y4 = y + h * k3
        if y4 <= 0.0:
            raise BlowupDetected(x, y4, "intermediate stage left (0, y_max)")
        k4 = rhs(y4)
        y = y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not (0.0 < y < y_max):
            raise BlowupDetected(x_next, y, "solution left (0, y_max)")
        xs.append(x_next)
        ys.append(y)
    return Trajectory(xs=np.asarray(xs), ys=np.asarray(ys), q=q, direction=d)


def shift_expansion(q: float, shift: float):
    """Axis rescaling equivalent to the argument shift x -> x + shift.

    Returns (y_scale, x_scale) = (exp_q(shift), exp_q(shift)**(1-q)) with

        exp_q(x + shift) = y_scale * exp_q(x / x_scale)

    for every x where both sides are defined.  Requires the shift itself to
    satisfy 1 + (1-q)*shift > 0.
    """
    q = check_index(q)
    y_scale = q_exp(q, shift)
    return y_scale, y_scale ** (1.0 - q)


def compose_shifts(q: float, shift1: float, shift2: float):
    """Axis rescaling accumulated by two successive argument shifts.

    The second shift acts in the already-rescaled coordinates, so the
    factors multiply:

        (y_scale, x_scale) = (exp_q(c1) * exp_q(c2),
                              exp_q(c1)**(1-q) * exp_q(c2)**(1-q)).

    For q != 1 this is *not* the single-shift expansion of c1 + c2: the
    composition equals ``shift_expansion(q, c1 + c2 + (1-q)*c1*c2)``
    exactly, because c2 is measured in the scale unit left behind by c1.
    """
    q = check_index(q)
    y1, x1 = shift_expansion(q, shift1)
    y2, x2 = shift_expansion(q, shift2)
    return y1 * y2, x1 * x2


def fig2_data(scales=FIG2_SCALES, q: float = FIG2_INDEX, grid=None) -> FigureTable:
    """Decay curves for several rescale factors, plus their deformed-log line.

    For each scale C the raw curve y(x) = C * exp_q(-x / C**(1-q)) is
    sampled over a shared *rescaled* grid (default ``FIG2_GRID``: 501
    uniform points on [0, 5]), so the rescaled columns (x/C**(1-q), y/C)
    are directly comparable across scales: they coincide pointwise.
    ``qlog_y`` is the deformed log of the raw curve and satisfies
    qlog_y = -x_raw + log_q(C) (slope -1, intercept log_q(C)).
    """
    grid = np.linspace(*FIG2_GRID) if grid is None else grid
    return _scaled_family(q, scales, grid, 1, {"direction": -1.0, "qlog_slope": -1.0})
