"""Deformed factorial/multinomial sums, their asymptotic formula, and
Tsallis entropy.

The deformed log-factorial is the sum log_q(n!_q) = sum_k log_q(k).  It is
computed in constant time and memory as an exact head plus an
Euler-Maclaurin tail (Abramowitz & Stegun 23.1.30):

* head: ``math.fsum`` of log_q(k) for k <= M = 1024, so n <= M gives the
  exact compensated sum, faithful to the last bit;
* tail from M to n: the integral, written in the q-log form

      int_a^b log_q x dx = (b - a) log_q b + a**(2-q) (log_q t - log_{q-1} t),

  t = b/a, which goes through ``q_log`` only and so needs no branch or pole
  at q = 1 or q = 2, and does not cancel when b is close to a, as
  b log_q b - a log_q a does; the half-terms (f(n) - f(M))/2; and the
  B2..B8 terms with f^(2j-1)(x) = prod_{i<2j-2} (-(q+i)) * x**(-q-2j+2).
  The tail's terms are added to the head in one ``fsum``.

Against 40-digit closed forms of the sum, over 169 indices in [-3, 6]
(q = 1 +/- 1e-9 and 2 +/- 1e-9 included) and 25 n from 1025 to 1e7, the
worst relative error measured is 6.4e-14, at q = -2.78 and n = 2.2e6 where
n**(2-q) is ill-conditioned; below 1e-15 near q = 1 and q = 2.  A result
past the largest double raises the named overflow.

The sum's large-n behaviour is captured by the two-branch asymptotic formula
(``q_stirling``).  The deformed log-multinomial is the same head and tail
summed from the largest count + 1 to the total, less the other counts'
factorials.  For large counts the log-multinomial is equivalent to
Tsallis entropy of the count fractions:

    log_q[multinomial] ~ n**(2-q)/(2-q) * S_{2-q}(n_1/n, ..., n_k/n)   (q != 2)
    log_2[multinomial] ~ -log(n) + sum_i log(n_i)                      (q = 2)

with S_q(p) = (1 - sum p_i**q)/(q - 1) and S_1 the natural-log Shannon
entropy.  ``q_stirling`` and ``tsallis_correspondence`` take the q = 2
branch on bitwise q == 2 and the generic one everywhere else.
"""

from __future__ import annotations

import math

import numpy as np

from . import _EXPORTS
from ._array import _q_log_array
from .core import check_index, q_log
from .errors import RangeOverflow

__all__ = _EXPORTS["combinatorics"]


_HEAD = 1024  # terms summed exactly; the rest is the Euler-Maclaurin tail
_BERNOULLI = (1.0 / 12.0, -1.0 / 720.0, 1.0 / 30240.0, -1.0 / 1209600.0)  # B_2j/(2j)!


def _check_count(name: str, c) -> int:
    # int(c) alone would truncate 2.5 and overflow on inf
    try:
        n = int(c)
    except (OverflowError, ValueError):  # inf, nan
        n = 0
    if n != c or n < 1:
        raise ValueError(f"{name} must be a positive integer, got {c!r}")
    return n


def _check_counts(counts) -> list:
    values = [_check_count(f"counts[{i}]", c) for i, c in enumerate(counts)]
    if not values:
        raise ValueError("counts must be non-empty")
    return values


def _check_probabilities(p) -> np.ndarray:
    arr = np.asarray(p, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("probability vector must be 1-d and non-empty")
    if not ((arr >= 0.0).all() and np.isfinite(arr).all()):
        raise ValueError("probabilities must be finite and non-negative")
    total = math.fsum(arr.tolist())
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"probabilities must sum to 1 (got {total!r})")
    return arr


def _tail(q: float, a: float, n: float) -> list:
    """Terms whose sum is sum_{a<k<=n} log_q(k) to double precision, for
    integers n > a >= M: the q-log-form integral from a to n, the
    half-terms and the B2..B8 corrections."""
    t = n / a
    terms = [(n - a) * q_log(q, n), a ** (2.0 - q) * (q_log(q, t) - q_log(q - 1.0, t)),
             0.5 * q_log(q, n), -0.5 * q_log(q, a)]
    # f'(x) = x**-q; two more derivatives multiply by (q+i)(q+i+1)/x**2
    for x, sign in ((n, 1.0), (a, -1.0)):
        d = x ** -q
        for j, coeff in enumerate(_BERNOULLI):
            if j:
                d = d * (q + 2 * j - 2) * (q + 2 * j - 1) / (x * x)
            terms.append(sign * coeff * d)
    return terms


def _log_q_range(q: float, lo: int, n: int) -> float:
    """sum of log_q(k) for lo < k <= n: the exact ``fsum`` of the first
    (at most M) terms plus, past lo + M, the Euler-Maclaurin tail.  A result
    past the largest double, or a bound that is not a double, raises
    :class:`~qdeform.errors.RangeOverflow` naming q and n."""
    top = min(n, lo + _HEAD)
    try:
        head = math.fsum(_q_log_array(q, np.arange(lo + 1, top + 1, dtype=float)).tolist())
        value = head if n == top else math.fsum([head, *_tail(q, float(top), float(n))])
    except (OverflowError, ValueError):  # a term past the largest double, or inf - inf
        value = math.inf
    if not math.isfinite(value):
        raise RangeOverflow("log_q_factorial", q, f"n={n!r}")
    return value


def q_log_factorial(q: float, n: int) -> float:
    """log_q(n!_q) = sum of log_q(k) for k = 1..n, in constant time.

    The exact ``fsum`` of the first M = 1024 terms (so n <= M is the exact
    compensated sum) plus, for n > M, the Euler-Maclaurin tail of the
    module docstring, within 6.4e-14 relative error.  A result past the
    largest double, or an n that is not a double, raises
    :class:`~qdeform.errors.RangeOverflow` naming q and n.
    """
    return _log_q_range(check_index(q), 0, _check_count("n", n))


def q_stirling(q: float, n: int) -> float:
    """Asymptotic formula for log_q(n!_q), with its own branch at q = 2.

    q != 2:  n/(2-q) * log_q(n) - n/(2-q) + log_q(n)/2 + 1/(2-q)
    q == 2:  n - log(n) - 1/(2n) - 1/2

    The singular branch is dispatched on bitwise q == 2; nearby indices use
    the generic branch, which is continuous away from the removable point.
    A result past the largest double raises :class:`OverflowError` naming
    q and n.
    """
    q = check_index(q)
    n = _check_count("n", n)
    try:
        if q == 2.0:
            value = n - math.log(n) - 1.0 / (2.0 * n) - 0.5
        else:
            lnq = q_log(q, float(n))
            twn = 2.0 - q
            value = n / twn * lnq - n / twn + 0.5 * lnq + 1.0 / twn
    except OverflowError:  # n or log_q(n) past the largest double
        value = math.inf
    if not math.isfinite(value):  # a term past it, or inf - inf
        raise RangeOverflow("q_stirling", q, f"n={n!r}")
    return value


def q_log_multinomial(q: float, counts) -> float:
    """log_q of the deformed multinomial, no asymptotics: the sum of
    log_q(k) from the largest count + 1 to the total, less the other
    counts' :func:`q_log_factorial`.  The largest block's factorial is never
    formed, so a total that the largest count nearly fills does not cancel."""
    q = check_index(q)
    values = sorted(_check_counts(counts))
    return (_log_q_range(q, values[-1], sum(values))
            - math.fsum(q_log_factorial(q, c) for c in values[:-1]))


def tsallis_entropy(q: float, p) -> float:
    """Tsallis entropy S_q(p) = (1 - sum p_i**q)/(q - 1); Shannon at q = 1.

    Zero-probability entries are skipped (the 0**q = 0 convention for
    q > 0).  Non-negative for q > 0 and maximized by the uniform vector,
    where it equals log_q(k).  Raises :class:`~qdeform.errors.RangeOverflow`
    naming q when the power sum passes the largest double (small entries at
    q << 0).
    """
    q = check_index(q)
    arr = _check_probabilities(p)
    positive = arr[arr > 0.0]
    if q == 1.0:
        return -math.fsum((positive * np.log(positive)).tolist())
    # an overflow to inf is reported below, naming q
    with np.errstate(over="ignore"):
        powers = (positive ** q).tolist()
    try:
        value = (1.0 - math.fsum(powers)) / (q - 1.0)
    except OverflowError:  # finite powers whose sum passes the largest double
        value = math.inf
    if not math.isfinite(value):
        raise RangeOverflow("tsallis_entropy", q, f"sum of {positive.size} powers p_i**q")
    return value


def tsallis_correspondence(q: float, counts):
    """Exact deformed log-multinomial vs its entropy asymptotics.

    Returns (lhs, rhs, rel_err) with lhs the exact sum, rhs the
    n**(2-q)/(2-q) * S_{2-q}(counts/n) form (at bitwise q == 2, as in
    ``q_stirling``, its own branch -log(n) + sum_i log(n_i)), and rel_err
    their gap relative to the larger magnitude (0 when both vanish).  The
    gap shrinks as the counts grow at fixed fractions.  Overflow raises
    :class:`OverflowError` naming q and the total n."""
    q = check_index(q)
    values = _check_counts(counts)
    n = sum(values)
    lhs = q_log_multinomial(q, values)
    if q == 2.0:
        rhs = -math.log(n) + math.fsum(math.log(c) for c in values)
    else:
        fractions = np.asarray(values, dtype=float) / n
        try:
            rhs = n ** (2.0 - q) / (2.0 - q) * tsallis_entropy(2.0 - q, fractions)
        except OverflowError:
            rhs = math.inf
        if not math.isfinite(rhs):
            raise RangeOverflow("tsallis_correspondence", q, f"n={n}")
    denom = max(abs(lhs), abs(rhs))
    return lhs, rhs, abs(lhs - rhs) / denom if denom else 0.0
