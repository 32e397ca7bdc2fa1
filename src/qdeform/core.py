"""Deformed logarithm/exponential pair with exact classical dispatch at q = 1.

For a real deformation index ``q`` the deformed logarithm is

    log_q(y) = (y**(1-q) - 1) / (1-q)          (y > 0)

and its inverse, defined wherever the *bracket* 1 + (1-q)*x is strictly
positive, is

    exp_q(x) = (1 + (1-q)*x) ** (1 / (1-q)).

Both reduce to ``log``/``exp`` as q -> 1.  The classical branch is taken on
bitwise ``q == 1``; no epsilon band is used because the deformed branch is
evaluated through ``expm1``/``log1p``,

    log_q(y) = expm1((1-q) * log(y)) / (1-q),
    exp_q(x) = exp(log1p((1-q) * x) / (1-q)),

which stays accurate down to |1-q| ~ 1e-8 and far beyond.

Out-of-domain calls raise :class:`~qdeform.errors.DomainViolation` carrying
the offending bracket value.  The sharp-cutoff convention (exp_q := 0 where
the bracket is <= 0, only meaningful for q < 1 where the extension is
continuous) is opt-in via ``cutoff=True`` and never the default.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainViolation, NonPositiveArgument

__all__ = [
    "check_index",
    "q_exp_bracket",
    "q_log",
    "q_exp",
    "q_log_of_ratio",
    "round_trip_check",
]


def check_index(q: float) -> float:
    """Validate a deformation index: any finite real (NaN/inf rejected)."""
    q = float(q)
    if not math.isfinite(q):
        raise ValueError(f"deformation index must be finite, got {q!r}")
    return q


def q_exp_bracket(q: float, x: float) -> float:
    """Domain certificate 1 + (1-q)*x of the deformed exponential.

    ``q_exp(q, x)`` is defined exactly where this is strictly positive.
    """
    return 1.0 + (1.0 - q) * x


def _check_positive(name: str, value) -> float:
    value = float(value)
    if not (value > 0.0) or not math.isfinite(value):
        raise NonPositiveArgument(name, value)
    return value


def q_log(q: float, y: float) -> float:
    """Deformed logarithm of index ``q``.

    Strictly increasing in ``y`` for every fixed index; log_q(1) = 0.
    Raises :class:`NonPositiveArgument` for y <= 0.
    """
    q = check_index(q)
    y = _check_positive("y", y)
    if q == 1.0:
        return math.log(y)
    omq = 1.0 - q
    return math.expm1(omq * math.log(y)) / omq


def q_exp(q: float, x: float, cutoff: bool = False) -> float:
    """Deformed exponential of index ``q``, the inverse of :func:`q_log`.

    Defined for 1 + (1-q)*x > 0; raises :class:`DomainViolation` (carrying
    the bracket value) otherwise.  With ``cutoff=True`` and q < 1 the
    function is instead extended continuously by 0 beyond the boundary.
    """
    q = check_index(q)
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"argument must be finite, got {x!r}")
    if q == 1.0:
        return math.exp(x)
    omq = 1.0 - q
    w = 1.0 + omq * x
    if w <= 0.0:
        if cutoff and q < 1.0:
            return 0.0
        raise DomainViolation("exp_q argument outside domain", w)
    return math.exp(math.log1p(omq * x) / omq)


def _check_all(ok: np.ndarray, error) -> None:
    """Raise ``error(i)`` at the flat index i of the first False in ``ok``."""
    if not ok.all():
        raise error(int(np.argmin(ok)))


def _finite(q: float, name: str, values: np.ndarray) -> np.ndarray:
    _check_all(np.isfinite(values), lambda i: OverflowError(
        f"{name} at q={q!r} overflows a double (element {i})"))
    return values


def _q_log_array(q: float, y) -> np.ndarray:
    """Elementwise :func:`q_log` for a checked index.  Errors name the first
    failing element; a result past the largest double raises
    :class:`OverflowError`, as ``math.expm1`` does."""
    y = np.asarray(y, dtype=float)
    _check_all((y > 0.0) & np.isfinite(y),
               lambda i: NonPositiveArgument(f"y[{i}]", float(y.flat[i])))
    if q == 1.0:
        return np.log(y)
    omq = 1.0 - q
    with np.errstate(over="ignore"):
        return _finite(q, "log_q", np.expm1(omq * np.log(y)) / omq)


def _q_exp_array(q: float, x) -> np.ndarray:
    """Elementwise :func:`q_exp` without cutoff, for a checked index.  Errors
    name the first failing element; a result past the largest double
    raises :class:`OverflowError`, as ``math.exp`` does."""
    x = np.asarray(x, dtype=float)
    _check_all(np.isfinite(x), lambda i: ValueError(
        f"argument must be finite, got {float(x.flat[i])!r} (element {i})"))
    with np.errstate(over="ignore"):
        if q != 1.0:
            omq = 1.0 - q
            w = 1.0 + omq * x
            _check_all(w > 0.0, lambda i: DomainViolation(
                "exp_q argument outside domain", float(w.flat[i]), index=i))
            x = np.log1p(omq * x) / omq
        return _finite(q, "exp_q", np.exp(x))


def q_log_of_ratio(q: float, y: float, x: float) -> float:
    """log_q(y/x) evaluated through the rescaling identity

        log_q(y/x) = x**(q-1) * (log_q(y) - log_q(x)),

    which keeps the denominator's scale factor explicit instead of forming
    the quotient first.  Agrees with ``q_log(q, y/x)`` wherever both sides
    are defined.
    """
    q = check_index(q)
    y = _check_positive("y", y)
    x = _check_positive("x", x)
    if q == 1.0:
        return math.log(y) - math.log(x)
    return x ** (q - 1.0) * (q_log(q, y) - q_log(q, x))


def round_trip_check(q: float, x: float) -> float:
    """Residual |log_q(exp_q(x)) - x| of the inverse pair at ``x``.

    Expected below 1e-12 * max(1, |x|) everywhere in the domain.
    """
    return abs(q_log(q, q_exp(q, x)) - x)
