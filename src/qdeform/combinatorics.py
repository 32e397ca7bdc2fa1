"""Deformed factorial/multinomial sums, their asymptotic formula, and
Tsallis entropy.

The deformed log-factorial is the exact sum log_q(n!_q) = sum_k log_q(k);
its large-n behaviour is captured by the two-branch asymptotic formula
(``q_stirling``), and subtracting the block factorials gives the deformed
log-multinomial.  For large counts the log-multinomial is equivalent to
Tsallis entropy of the count fractions:

    log_q[multinomial] ~ n**(2-q)/(2-q) * S_{2-q}(n_1/n, ..., n_k/n)   (q != 2)
    log_2[multinomial] ~ -log(n) + sum_i log(n_i)                      (q = 2)

with S_q(p) = (1 - sum p_i**q)/(q - 1) and S_1 the natural-log Shannon
entropy.  Exact sums are accumulated with ``math.fsum`` so totals up to 1e6
stay faithful to the last bit.
"""

from __future__ import annotations

import math

import numpy as np

from .core import _q_log_array, check_index, q_log

__all__ = [
    "q_log_factorial",
    "q_stirling",
    "q_log_multinomial",
    "tsallis_entropy",
    "tsallis_correspondence",
    "tsallis_correspondence_q2",
]


def _check_counts(counts) -> list:
    values = list(counts)
    if not values:
        raise ValueError("counts must be non-empty")
    for i, c in enumerate(values):
        if int(c) != c or c < 1:
            raise ValueError(f"counts[{i}] must be a positive integer, got {c!r}")
    return [int(c) for c in values]


def _check_probabilities(p) -> np.ndarray:
    arr = np.asarray(p, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("probability vector must be 1-d and non-empty")
    if np.any(arr < 0.0) or not np.all(np.isfinite(arr)):
        raise ValueError("probabilities must be finite and non-negative")
    total = math.fsum(arr.tolist())
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"probabilities must sum to 1 (got {total!r})")
    return arr


def q_log_factorial(q: float, n: int) -> float:
    """Exact compensated sum of log_q(k) for k = 1..n."""
    q = check_index(q)
    n = int(n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return math.fsum(_q_log_array(q, np.arange(1, n + 1, dtype=float)).tolist())


def q_stirling(q: float, n: int) -> float:
    """Asymptotic formula for log_q(n!_q), with its own branch at q = 2.

    q != 2:  n/(2-q) * log_q(n) - n/(2-q) + log_q(n)/2 + 1/(2-q)
    q == 2:  n - log(n) - 1/(2n) - 1/2

    The singular branch is dispatched on bitwise q == 2; nearby indices use
    the generic branch, which is continuous away from the removable point.
    """
    q = check_index(q)
    n = int(n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if q == 2.0:
        return n - math.log(n) - 1.0 / (2.0 * n) - 0.5
    lnq = q_log(q, float(n))
    twn = 2.0 - q
    return n / twn * lnq - n / twn + 0.5 * lnq + 1.0 / twn


def q_log_multinomial(q: float, counts) -> float:
    """log_q of the deformed multinomial: exact factorial sums, no asymptotics."""
    q = check_index(q)
    values = _check_counts(counts)
    n = sum(values)
    return q_log_factorial(q, n) - math.fsum(q_log_factorial(q, c) for c in values)


def tsallis_entropy(q: float, p) -> float:
    """Tsallis entropy S_q(p) = (1 - sum p_i**q)/(q - 1); Shannon at q = 1.

    Zero-probability entries are skipped (the 0**q = 0 convention for
    q > 0).  Non-negative for q > 0 and maximized by the uniform vector,
    where it equals log_q(k).
    """
    q = check_index(q)
    arr = _check_probabilities(p)
    positive = arr[arr > 0.0]
    if q == 1.0:
        return -math.fsum((positive * np.log(positive)).tolist())
    return (1.0 - math.fsum((positive ** q).tolist())) / (q - 1.0)


def _relative_gap(lhs: float, rhs: float) -> float:
    denom = max(abs(lhs), abs(rhs))
    if denom == 0.0:
        return 0.0
    return abs(lhs - rhs) / denom


def tsallis_correspondence(q: float, counts):
    """Exact deformed log-multinomial vs its entropy asymptotics (q != 2).

    Returns (lhs, rhs, rel_err) with lhs the exact sum, rhs the
    n**(2-q)/(2-q) * S_{2-q}(counts/n) form, and rel_err their gap relative
    to the larger magnitude (0 when both vanish).  The gap shrinks as the
    counts grow at fixed fractions.
    """
    q = check_index(q)
    if q == 2.0:
        raise ValueError("q = 2 has its own correspondence branch; "
                         "use tsallis_correspondence_q2")
    values = _check_counts(counts)
    n = sum(values)
    lhs = q_log_multinomial(q, values)
    fractions = np.asarray(values, dtype=float) / n
    rhs = n ** (2.0 - q) / (2.0 - q) * tsallis_entropy(2.0 - q, fractions)
    return lhs, rhs, _relative_gap(lhs, rhs)


def tsallis_correspondence_q2(counts):
    """The q = 2 correspondence: exact sum vs -log(n) + sum_i log(n_i)."""
    values = _check_counts(counts)
    n = sum(values)
    lhs = q_log_multinomial(2.0, values)
    rhs = -math.log(n) + math.fsum(math.log(c) for c in values)
    return lhs, rhs, _relative_gap(lhs, rhs)
