"""Deformed logarithm/exponential pair with exact classical dispatch at q = 1.

For a real deformation index ``q`` the deformed logarithm is

    log_q(y) = (y**(1-q) - 1) / (1-q)          (y > 0)

and its inverse, defined wherever the *bracket* 1 + (1-q)*x is strictly
positive, is

    exp_q(x) = (1 + (1-q)*x) ** (1 / (1-q)).

Both reduce to ``log``/``exp`` as q -> 1.  The classical branch is taken on
bitwise ``q == 1``; no epsilon band is used because the deformed branch is
evaluated through one kernel pair (with ``q_log_of_ratio``'s and
``_log1p_past``'s, the package's only ``expm1``/``log1p``),

    _lift(q, y) = expm1((1-q) * log(y)) = (1-q) * log_q(y),
    _drop(q, d) = exp(log1p(d) / (1-q)) = exp_q(d / (1-q)),

and its numpy twins ``_lift_array``/``_drop_array``, which stay accurate
down to |1-q| ~ 1e-8 and far beyond.  The q-product exp_q(log_q x + log_q y)
is _drop(q, _lift(q, x) + _lift(q, y)).  The kernels overflow as ``math``
and numpy do.  ``q_exp`` is exp_q's one range policy: ``_q_exp_array`` and
``canonical._frequencies`` hand it each value they cannot represent; ``q_log``
is log_q's, for ``_q_log_array``.  Where (1-q)*x, or ``analytic_solution``'s
bracket less 1, passes the largest double, :func:`_log1p_past` takes its log1p
from its log.  A scalar result past the largest double leaves through
:func:`_finite_or_overflow` as a named :class:`RangeOverflow`; ``q_log``,
``q_exp``, ``q_log_of_ratio``, ``algebra._combine`` and ``analytic_solution``
keep its pattern inline on their fast paths, as one call frame more is a
measurable share of their per-call time.  A public function checks each
argument once, in its own body; a library caller that already holds checked
floats calls ``_lift``/``_drop`` rather than checking them again.

This module imports only ``math``, so the scalar primitives (and the CLI
commands built on them alone) start without numpy.  The numpy twins, with
the array primitives ``_q_log_array``/``_q_exp_array``, live in the private
module :mod:`qdeform._array`.

Out-of-domain calls raise :class:`~qdeform.errors.DomainViolation` carrying
the offending bracket value.  The sharp-cutoff convention (exp_q := 0 where
the bracket is <= 0, only meaningful for q < 1 where the extension is
continuous) is opt-in via ``cutoff=True`` and never the default.
"""

from __future__ import annotations

import math

from . import _EXPORTS
from .errors import DomainViolation, NonPositiveArgument, RangeOverflow

__all__ = _EXPORTS["core"]


def _index_error(q: float) -> ValueError:
    return ValueError(f"deformation index must be finite, got {q!r}")


def check_index(q: float) -> float:
    """Validate a deformation index: any finite real (NaN/inf rejected)."""
    if not math.isfinite(q := float(q)):
        raise _index_error(q)
    return q


def q_exp_bracket(q: float, x: float) -> float:
    """Domain certificate 1 + (1-q)*x of the deformed exponential.

    ``q_exp(q, x)`` is defined exactly where this is strictly positive.
    """
    return 1.0 + (1.0 - q) * x


def _check_positive(name: str, value) -> float:
    if not 0.0 < (value := float(value)) < math.inf:
        raise NonPositiveArgument(name, value)
    return value


def _finite_or_overflow(name: str, q: float, where, compute):
    """compute(), where finite; an ``OverflowError``, inf or nan from it raises
    RangeOverflow(name, q, where()), unchained.  Other exceptions propagate."""
    try:
        value = compute()
        if math.isfinite(value):
            return value
    except OverflowError:
        pass
    raise RangeOverflow(name, q, where())


def _lift(q: float, y: float) -> float:
    """y**(1-q) - 1 = (1-q) log_q(y) for y > 0 and q != 1, as
    expm1((1-q) ln y) so that it does not cancel near q = 1."""
    return math.expm1((1.0 - q) * math.log(y))


def _drop(q: float, d: float) -> float:
    """(1 + d)**(1/(1-q)), the inverse of :func:`_lift`, for d > -1 and
    q != 1, as exp(log1p(d)/(1-q))."""
    return math.exp(math.log1p(d) / (1.0 - q))


def _log1p_past(a: float, ln_a: float) -> float:
    """log1p(a) for a > -1, also where a passed the largest double: a = inf
    is given by its log ln_a = ln a, and ln(1 + a) = ln_a + log1p(1/a)."""
    if a < math.inf:
        return math.log1p(a)
    return ln_a + math.log1p(math.exp(-ln_a))


def q_log(q: float, y: float) -> float:
    """Deformed logarithm of index ``q``.

    Strictly increasing in ``y`` for every fixed index; log_q(1) = 0.
    Raises :class:`NonPositiveArgument` for y <= 0, and an
    :class:`OverflowError` naming q and y for a result past the largest double;
    a lift y**(1-q) past it is no error where the result is not.
    """
    if not math.isfinite(q := float(q)):
        raise _index_error(q)
    if not 0.0 < (y := float(y)) < math.inf:
        raise NonPositiveArgument("y", y)
    if q == 1.0:
        return math.log(y)
    try:
        value = _lift(q, y) / (1.0 - q)
        if math.isfinite(value):
            return value
    except OverflowError:
        pass
    # y**(1-q) passed the largest double, log_q need not: the lift from its log (1-q) ln y
    return _finite_or_overflow("log_q", q, lambda y=y: f"y={y!r}", lambda q=q, y=y: math.copysign(
        math.exp((1.0 - q) * math.log(y) - math.log(abs(1.0 - q))), 1.0 - q) - 1.0 / (1.0 - q))


def q_exp(q: float, x: float, cutoff: bool = False) -> float:
    """Deformed exponential of index ``q``, the inverse of :func:`q_log`.

    Defined for 1 + (1-q)*x > 0; raises :class:`DomainViolation` (carrying
    the bracket value) otherwise.  With ``cutoff=True`` and q < 1 the
    function is instead extended continuously by 0 beyond the boundary.
    A result past the largest double raises :class:`OverflowError` naming
    q and x; a term (1-q)*x past it is no error where the result is not.
    """
    if not math.isfinite(q := float(q)):
        raise _index_error(q)
    if not math.isfinite(x := float(x)):
        raise ValueError(f"argument must be finite, got {x!r}")
    d = (1.0 - q) * x  # 0 at q = 1
    if d <= -1.0:
        if cutoff and q < 1.0:
            return 0.0
        raise DomainViolation("exp_q argument outside domain", 1.0 + d)
    try:
        value = math.exp(x) if q == 1.0 else _drop(q, d)
        if 0.0 < value < math.inf or d < math.inf:  # 0.0 where exp_q underflows
            return value
        # (1-q)*x passed the largest double: log1p of it from ln|1-q| + ln|x|
        return math.exp(_log1p_past(d, math.log(abs(1.0 - q)) + math.log(abs(x))) / (1.0 - q))
    except OverflowError:
        pass
    raise RangeOverflow("exp_q", q, f"x={x!r}")


def _check_all(ok, error) -> None:
    """Raise ``error(i)`` at the flat index i of the first False in the
    boolean array ``ok``."""
    if not ok.all():
        raise error(int(ok.argmin()))


def q_log_of_ratio(q: float, y: float, x: float) -> float:
    """log_q(y/x) = expm1((1-q) L) / (1-q), _lift's form on L = ln(y/x) (L
    at q = 1), with L = log1p((y-x)/x) for y/x in [1/2, 2] (y - x exact),
    log(y/x) for a normal quotient, and log(y) - log(x) beyond: within about
    1e-13 relative.  A result past the largest double raises
    :class:`OverflowError` naming q, y and x.
    """
    if not math.isfinite(q := float(q)):
        raise _index_error(q)
    if not 0.0 < (y := float(y)) < math.inf:
        raise NonPositiveArgument("y", y)
    if not 0.0 < (x := float(x)) < math.inf:
        raise NonPositiveArgument("x", x)
    ratio = y / x
    if 0.5 <= ratio <= 2.0:
        ln_ratio = math.log1p((y - x) / x)
    elif 2.2250738585072014e-308 <= ratio < math.inf:
        ln_ratio = math.log(ratio)
    else:
        ln_ratio = math.log(y) - math.log(x)
    if q == 1.0:
        return ln_ratio
    try:
        value = math.expm1((1.0 - q) * ln_ratio) / (1.0 - q)
        if math.isfinite(value):
            return value
    except OverflowError:
        pass
    raise RangeOverflow("log_q ratio", q, f"y={y!r}, x={x!r}")
