"""numpy twins of the :mod:`qdeform.core` kernel pair and primitives.

They live apart from ``core`` so that the scalar primitives, and the CLI
commands built only on them, never import numpy.  Each twin computes what
its scalar counterpart does, elementwise, with the same ``expm1``/``log1p``
form and the same bitwise ``q == 1`` dispatch.
"""

from __future__ import annotations

import numpy as np

from .core import _check_all
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
    """Elementwise :func:`~qdeform.core.q_log` for a checked index.  Errors
    name the first failing element; a result past the largest double raises
    :class:`OverflowError`, as :func:`~qdeform.core.q_log` does."""
    y = np.asarray(y, dtype=float)
    _check_all((y > 0.0) & np.isfinite(y),
               lambda i: NonPositiveArgument(f"y[{i}]", float(y.flat[i])))
    if q == 1.0:
        return np.log(y)
    with np.errstate(over="ignore"):
        return _finite(q, "log_q", _lift_array(q, y) / (1.0 - q))


def _q_exp_array(q: float, x) -> np.ndarray:
    """Elementwise :func:`~qdeform.core.q_exp` without cutoff, for a checked
    index.  Errors name the first failing element; a result past the largest
    double raises :class:`OverflowError`, as :func:`~qdeform.core.q_exp` does."""
    x = np.asarray(x, dtype=float)
    _check_all(np.isfinite(x), lambda i: ValueError(
        f"argument must be finite, got {float(x.flat[i])!r} (element {i})"))
    with np.errstate(over="ignore"):
        if q == 1.0:
            return _finite(q, "exp_q", np.exp(x))
        d = (1.0 - q) * x
        _check_all(d > -1.0, lambda i: DomainViolation(
            "exp_q argument outside domain", float(1.0 + d.flat[i]), index=i))
        return _finite(q, "exp_q", _drop_array(q, d))
