"""numpy twins of the :mod:`qdeform.core` kernel pair and primitives.

They live apart from ``core`` so that the scalar primitives, and the CLI
commands built only on them, never import numpy.  Each twin is its scalar
counterpart elementwise, in the same ``expm1``/``log1p`` form and bitwise
``q == 1`` dispatch.  ``_q_exp_array`` and ``_q_log_array`` hand ``q_exp`` and
``q_log``, exp_q's and log_q's one range policies, what they cannot represent.
"""

from __future__ import annotations

import numpy as np

from .core import _check_all, q_exp, q_log
from .errors import DomainViolation, NonPositiveArgument, RangeOverflow


def _finite(q: float, name: str, values: np.ndarray) -> np.ndarray:
    _check_all(np.isfinite(values),
               lambda i: RangeOverflow(name, q, f"element {i}"))
    return values


def _check_finite(name: str, values: np.ndarray) -> np.ndarray:
    """Raise :class:`ValueError` naming the first non-finite element as
    ``name[i]``."""
    _check_all(np.isfinite(values), lambda i: ValueError(
        f"{name}[{i}] must be finite, got {float(values.flat[i])!r}"))
    return values


def _lift_array(q, y) -> np.ndarray:
    """Elementwise :func:`~qdeform.core._lift`; ``q`` may be an array that
    broadcasts with ``y``."""
    return np.expm1((1.0 - q) * np.log(y))


def _drop_array(q: float, d) -> np.ndarray:
    """Elementwise :func:`~qdeform.core._drop`."""
    return np.exp(np.log1p(d) / (1.0 - q))


def _q_log_array(q: float, y) -> np.ndarray:
    """Elementwise :func:`~qdeform.core.q_log`, log_q's one range policy, for a
    checked index: one array expression, and ``q_log`` for each element where y
    is not in (0, inf) or the value is not finite, its first error naming i."""
    y = np.asarray(y, dtype=float)
    with np.errstate(all="ignore"):
        values = np.asarray(np.log(y) if q == 1.0 else _lift_array(q, y) / (1.0 - q))
        fast = (y > 0.0) & (y < np.inf) & np.isfinite(values)
    for i in [] if fast.all() else np.flatnonzero(~fast).tolist():
        try:
            values.flat[i] = q_log(q, y.flat[i])
        except NonPositiveArgument:
            raise NonPositiveArgument(f"y[{i}]", float(y.flat[i])) from None
        except RangeOverflow:
            raise RangeOverflow("log_q", q, f"element {i}") from None
    return values[()]  # a number for a 0-d y, as numpy gives it


def _q_exp_array(q: float, x) -> np.ndarray:
    """Elementwise :func:`~qdeform.core.q_exp` without cutoff, for a checked
    index: one array expression, and ``q_exp`` for each element where d =
    (1-q)*x is not in (-1, inf) or the value is inf.  The first element to
    fail raises ``q_exp``'s error; a domain or overflow error names it."""
    x = np.asarray(x, dtype=float)
    with np.errstate(all="ignore"):
        if q == 1.0:  # d = 0 for a finite x, and no array of it is formed
            values, fast = np.asarray(np.exp(x)), x > -np.inf
        else:
            values = np.asarray(_drop_array(q, d := (1.0 - q) * x))
            fast = (d > -1.0) & (d < np.inf)
        fast &= values < np.inf
    for i in [] if fast.all() else np.flatnonzero(~fast).tolist():
        try:
            values.flat[i] = q_exp(q, x.flat[i])
        except DomainViolation as err:
            raise DomainViolation("exp_q argument outside domain", err.constraint,
                                  index=i) from None
        except RangeOverflow:
            raise RangeOverflow("exp_q", q, f"element {i}") from None
    return values[()]  # a number for a 0-d x, as numpy gives it
