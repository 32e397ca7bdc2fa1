"""Deformed factorial/multinomial sums, their asymptotic formula, and
Tsallis entropy.

The deformed log-factorial is the sum log_q(n!_q) = sum_k log_q(k).  It is
computed in constant time and memory as an exact head plus an
Euler-Maclaurin tail (Abramowitz & Stegun 23.1.30):

* head: ``math.fsum`` of log_q(k) for k <= M = 64, so n <= M gives the
  exact compensated sum, faithful to the last bit.  Below q = -M/3 the
  head is 3|q| terms long: there the B8 truncation of the tail just past
  M = 64 reads 2.9e-10 at q = -50, and 3|q| terms keep it below the tail's
  conditioning (2.2e-12 at q = -50, 6.0e-12 at q = -70, up to n = 3000);
* tail from M to n: the integral, written in the q-log form

      int_a^b log_q x dx = (b - a) log_q b + a**(2-q) (log_q t - log_{q-1} t),

  t = b/a, which goes through ``q_log`` only and so needs no branch or pole
  at q = 1 or q = 2, and does not cancel when b is close to a, as
  b log_q b - a log_q a does; the half-terms (f(n) - f(M))/2; and the
  B2..B8 terms with f^(2j-1)(x) = prod_{i<2j-2} (-(q+i)) * x**(-q-2j+2).
  The tail's terms are added to the head in one ``fsum``.

Against 60-digit references (``tests/mp60.py``: the exact sum to 2000 and a
12-term Euler-Maclaurin tail past it), over 213 indices in [-3, 6] (169 on
a grid, 40 drawn, and q = 1 +/- 1e-9 and 2 +/- 1e-9), the worst relative
error measured is 2.6e-14 for n in (64, 1024] (138 n, steps of 7; at
q = -2.95, n = 898) and 6.0e-14 for 25 n from 1025 to 1e7 (at q = -2.73,
n = 2.2e6), where n**(2-q) is ill-conditioned.  The bound of 6.4e-14 stops
at n = 1e7: from 1e7 to 1e12 the worst measured is 1.0e-13 (at q = -2.95,
n = 1e9), growing with ln n at q < -2.  Near q = 1 and q = 2, and at both,
it is below 4.5e-16 up to n = 1e12.  A result past the largest double
raises the named overflow.

The sum's large-n behaviour is captured by the two-branch asymptotic formula
(``q_stirling``).  The deformed log-multinomial subtracts no factorial.  With
the counts in descending order, each count c_i after the first adds the block

    sum_{j<=c_i} log_q(A_i + j) - log_q(j) = sum_{j<=c_i} j**(1-q) log_q(1 + A_i/j),

A_i the sum of the counts before it: the q-log of a ratio, a positive term
that does not saturate as log_q k does for q > 1.  Each block is the same
exact head and Euler-Maclaurin tail, on the integral of log_q from A_i + M
to A_i + c_i less that from M to c_i, with the bounds' terms in the ratio
form.  Against 60-digit references, over 134 drawn cases (q in [-3, 6],
two and three counts log-uniform up to 1e12), the worst relative error
measured is 2.9e-15; subtracting the factorials read up to 3.5e-7 there.
For large counts the log-multinomial is equivalent to Tsallis entropy of
the count fractions:

    log_q[multinomial] ~ n**(2-q)/(2-q) * S_{2-q}(n_1/n, ..., n_k/n)   (q != 2)
    log_2[multinomial] ~ -log(n) + sum_i log(n_i)                      (q = 2)

``q_stirling`` and ``tsallis_correspondence`` take the q = 2 branch on
bitwise q == 2 and the generic one everywhere else.

The Tsallis entropy is taken in its q-log form (Tsallis, J. Stat. Phys. 52
(1988) 479), S_q(p) = sum_i p_i log_q(1/p_i), Shannon's entropy at q = 1
with no branch.  By log_q(1/p) = -p**(q-1) log_q(p) = -log_{2-q}(p) it is
summed as

    q <= 1:  S_q(p) = -sum_i p_i**q log_q(p_i),
    q >  1:  S_q(p) = -sum_i p_i log_{2-q}(p_i),

two forms whose log factor has an index s <= 1, so that it is bounded,
|log_s(p)| <= 1/(1-s) for p <= 1 (at s = 1, p ln p is), and every term is
non-negative: one ``fsum`` does not cancel.  A vector that sums to 1 only
to rounding is taken as p/sum(p), to first order in the rounding.  Against
the 60-digit entropy of p/sum(p), over 200 random vectors of 2 to 11
entries at 23 indices in [-3, 6] (q = 1 +/- 1e-9 and 2 +/- 1e-9 included),
the worst relative error measured is 4.4e-16.  The q-exp-side form
(1 - sum p_i**q)/(q - 1) equals it only when sum p_i = 1 exactly; near
q = 1 it divides the rounding of that sum by q - 1, and read 4.0e-7 there.

Only the exact heads of the log-factorial and of the multinomial's blocks
are summed in numpy; the module imports it there, so the entropy,
``q_stirling`` and the count checks run on ``math`` alone.
"""

from __future__ import annotations

import math
from itertools import accumulate

from . import _EXPORTS
from .core import _finite_or_overflow, _lift, check_index, q_log, q_log_of_ratio

__all__ = _EXPORTS["combinatorics"]


_HEAD = 64  # terms summed exactly; the rest is the Euler-Maclaurin tail
_BERNOULLI = (1.0 / 12.0, -1.0 / 720.0, 1.0 / 30240.0, -1.0 / 1209600.0)  # B_2j/(2j)!
_FIRST_ORDER = 2.0 ** -26  # |q r| below which (q r)**2, the first order's error, is below an ulp


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


def _check_probabilities(p):
    """The entries of p as floats, and sum(p) - 1 rounded once."""
    entries = p.tolist() if hasattr(p, "tolist") else p
    # a string would iterate as its characters; a scalar does not iterate,
    # and float() rejects the rows of a 2-d array's tolist()
    try:
        if isinstance(entries, (str, bytes, bytearray)):
            raise TypeError
        entries = list(entries)
        values = [float(v) for v in entries]
    except TypeError:
        for v in entries if isinstance(entries, list) else ():
            if isinstance(v, complex):
                raise ValueError(f"probabilities must be real, got {v!r}") from None
        values = []
    if not values:
        raise ValueError("probability vector must be 1-d and non-empty")
    if not all(0.0 <= v < math.inf for v in values):
        raise ValueError("probabilities must be finite and non-negative")
    try:
        residual = math.fsum([*values, -1.0])
    except OverflowError:  # finite entries whose sum passes the largest double
        residual = math.inf
    if not abs(residual) <= 1e-12:
        raise ValueError(f"probabilities must sum to 1 (got {1.0 + residual!r})")
    return values, residual


def _tail(q: float, a: float, n: float, offset: float | None = None) -> list:
    """Terms whose sum is sum_{a<j<=n} f(j) to double precision, for
    integers n > a >= M: the q-log-form integral from a to n, the
    half-terms and the B2..B8 corrections.  f(j) is log_q(j) or, given an
    offset A, the block term log_q(A + j) - log_q(j) = j**(1-q) log_q(1 + A/j),
    taken at the bounds in that form and integrated as log_q from A + a to
    A + n less log_q from a to n."""
    if offset is None:
        f_n, f_a, spans = q_log(q, n), q_log(q, a), ((a, n, 1.0),)
    else:
        f_n = n ** (1.0 - q) * q_log_of_ratio(q, offset + n, n)
        f_a = a ** (1.0 - q) * q_log_of_ratio(q, offset + a, a)
        spans = ((offset + a, offset + n, 1.0), (a, n, -1.0))
    terms = [(n - a) * f_n, 0.5 * f_n, -0.5 * f_a]
    for lo, hi, sign in spans:
        t = hi / lo
        terms.append(sign * lo ** (2.0 - q) * (q_log(q, t) - q_log(q - 1.0, t)))
        # f'(x) = x**-q; two more derivatives multiply by (q+i)(q+i+1)/x**2
        for x, side in ((hi, sign), (lo, -sign)):
            d = x ** -q
            for j, coeff in enumerate(_BERNOULLI):
                if j:
                    d = d * (q + 2 * j - 2) * (q + 2 * j - 1) / (x * x)
                terms.append(side * coeff * d)
    return terms


def _log_q_sum(q: float, n: int, offset: int | None = None) -> float:
    """sum of f(j) for j = 1..n, f as in :func:`_tail`: the exact ``fsum``
    of the first M terms (3|q| below q = -M/3) plus the Euler-Maclaurin tail
    past them; inf or nan where a term or the sum passes the largest double,
    or a bound is not a double."""
    import numpy as np

    from ._array import _q_log_array

    # below q = -M/3 the tail's B2..B8 terms need 3|q| exact terms before them
    # (at most 1024, reached at q = -341, where log_q(9) passes the largest double)
    top = min(n, max(_HEAD, min(int(-3.0 * q), 1024)))
    j = np.arange(1.0, top + 1.0)
    try:
        if offset is None:
            head = _q_log_array(q, j)
        else:
            offset = float(offset)
            with np.errstate(all="ignore"):  # a power past the largest double is inf
                head = j ** (1.0 - q) * _q_log_array(q, (offset + j) / j)
        terms = head.tolist()
        if n > top:
            terms += _tail(q, float(top), float(n), offset)
        return math.fsum(terms)
    except (OverflowError, ValueError):  # a term past the largest double, or inf - inf
        return math.inf


def q_log_factorial(q: float, n: int) -> float:
    """log_q(n!_q) = sum of log_q(k) for k = 1..n, in constant time.

    The exact ``fsum`` of the first M = 64 terms (3|q| below q = -M/3), so
    that n <= M is the exact compensated sum, plus the Euler-Maclaurin tail
    of the module docstring past them, within 6.4e-14 relative error for
    n <= 1e7 and q in [-3, 6], and 1.0e-13 measured up to n = 1e12.  A
    result past the largest double, or an n that is not a double, raises
    :class:`~qdeform.errors.RangeOverflow` naming q and n.
    """
    q, n = check_index(q), _check_count("n", n)
    return _finite_or_overflow("log_q_factorial", q, lambda: f"n={n!r}", lambda: _log_q_sum(q, n))


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

    def stirling():  # n, log_q(n) or a term may pass the largest double
        if q == 2.0:
            return n - math.log(n) - 1.0 / (2.0 * n) - 0.5
        lnq, twn = q_log(q, float(n)), 2.0 - q
        return n / twn * lnq - n / twn + 0.5 * lnq + 1.0 / twn

    return _finite_or_overflow("q_stirling", q, lambda: f"n={n!r}", stirling)


def q_log_multinomial(q: float, counts) -> float:
    """log_q of the deformed multinomial, no asymptotics: with the counts in
    descending order and A_i the sum of those before count c_i, the sum over
    i >= 2 of the blocks sum_{j<=c_i} log_q(A_i + j) - log_q(j), each term
    taken as j**(1-q) log_q(1 + A_i/j).  Every term is positive, so no
    factorial is subtracted and nothing cancels, and the largest block's
    factorial is never formed.  A result past the largest double, or a total
    that is not a double, raises :class:`~qdeform.errors.RangeOverflow`
    naming q and the total."""
    q = check_index(q)
    values = sorted(_check_counts(counts), reverse=True)
    total = sum(values)
    return _finite_or_overflow("log_q_factorial", q, lambda: f"n={total!r}", lambda: math.fsum(
        [_log_q_sum(q, c, offset) for c, offset in zip(values[1:], accumulate(values))]))


def tsallis_entropy(q: float, p) -> float:
    """Tsallis entropy S_q(p) = sum_i p_i log_q(1/p_i); Shannon at q = 1.

    Summed as -sum p_i**q log_q(p_i) for q <= 1 and -sum p_i log_{2-q}(p_i)
    for q > 1, two forms whose log factor is bounded (module docstring), in
    one ``fsum`` of non-negative terms.  sum(p) = 1 + r holds with r = 0
    only to rounding; while |q r| < 2**-26 the value is that of p/(1 + r),
    by S_q(p/(1 + r)) = S_q(p) (1 - q r) + r + O(q r**2), and beyond it
    that of p as given.
    Zero-probability entries are skipped (the 0**q = 0 convention for
    q > 0), and a deterministic vector gives +0.0.  Non-negative for every
    q and maximized by the uniform vector for q > 0, where it equals
    log_q(k).  Raises :class:`~qdeform.errors.RangeOverflow` naming q when
    a term or the sum passes the largest double (small entries at q << 0).
    """
    q = check_index(q)
    values, residual = _check_probabilities(p)
    positive = [v for v in values if v > 0.0]
    power, index = (q, q) if q <= 1.0 else (1.0, 2.0 - q)

    def entropy():  # p_i**q, or finite terms whose sum passes the largest double
        if index == 1.0:
            value = -math.fsum([v ** power * math.log(v) for v in positive])
        else:  # log_index(v) of the checked entries, as q_log computes it
            value = -math.fsum([v ** power * (_lift(index, v) / (1.0 - index)) for v in positive])
        return (value * (1.0 - q * residual) + residual if abs(q * residual) < _FIRST_ORDER
                else value)

    value = _finite_or_overflow(
        "tsallis_entropy", q, lambda: f"sum of {len(positive)} terms p_i log_q(1/p_i)", entropy)
    return max(0.0, value)  # +0.0 for -0.0, and for rounding below 0


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
        fractions = [c / n for c in values]
        rhs = _finite_or_overflow("tsallis_correspondence", q, lambda: f"n={n}", lambda: (
            n ** (2.0 - q) / (2.0 - q) * tsallis_entropy(2.0 - q, fractions)))
    denom = max(abs(lhs), abs(rhs))
    return lhs, rhs, abs(lhs - rhs) / denom if denom else 0.0
