"""60-digit references for the deformed logarithm and exponential, and for
the deformed log-factorial.

Each function takes doubles or mpmath numbers and returns an mpmath number
(``trajectory`` a list of them) computed at 60 significant digits from the
defining formula; arithmetic on the result keeps those digits only inside
``mpmath.workdps(60)``.
"""

from functools import lru_cache

import mpmath

DIGITS = 60
HEAD = 2000  # log_factorial's exactly summed terms
BERNOULLI_TERMS = 12  # log_factorial's Euler-Maclaurin terms past the head


def log_q(q, y):
    """(y**(1-q) - 1) / (1-q) for y > 0, ln y at q = 1."""
    with mpmath.workdps(DIGITS):
        q, y = mpmath.mpf(q), mpmath.mpf(y)
        return mpmath.log(y) if q == 1 else (y ** (1 - q) - 1) / (1 - q)


def exp_q(q, x):
    """(1 + (1-q) x) ** (1/(1-q)) where the bracket is positive, e**x at q = 1."""
    with mpmath.workdps(DIGITS):
        q, x = mpmath.mpf(q), mpmath.mpf(x)
        return mpmath.exp(x) if q == 1 else (1 + (1 - q) * x) ** (1 / (1 - q))


def trajectory(q, x0, y0, d, xs):
    """y0 * exp_q(d * (x - x0) / y0**(1-q)) at each double x of xs: the solution
    of dy/dx = d * y**q through (x0, y0)."""
    with mpmath.workdps(DIGITS):
        q, x0, y0 = mpmath.mpf(q), mpmath.mpf(x0), mpmath.mpf(y0)
        b0 = y0 ** (1 - q)
        return [y0 * exp_q(q, d * (mpmath.mpf(x) - x0) / b0) for x in xs]


@lru_cache(maxsize=None)
def _head_sums(q):
    """sum of log_q(k) for k = 1..m, for each m = 0..HEAD, to 60 digits."""
    with mpmath.workdps(DIGITS):
        sums = [mpmath.mpf(0)]
        for k in range(1, HEAD + 1):
            sums.append(sums[-1] + log_q(q, k))
        return sums


def log_factorial(q, n):
    """sum of log_q(k) for k = 1..n at an integer n >= 1: loggamma(n + 1) at
    q = 1 and n - H_n at q = 2; elsewhere the exact sum up to HEAD, and past
    it the Euler-Maclaurin tail with BERNOULLI_TERMS Bernoulli terms, whose
    remainder is below 1e-70 relative at HEAD."""
    with mpmath.workdps(DIGITS):
        q, n = mpmath.mpf(q), int(n)
        if q == 1:
            return mpmath.loggamma(n + 1)
        if q == 2:
            return n - mpmath.harmonic(n)
        if n <= HEAD:
            return _head_sums(q)[n]
        a, b = mpmath.mpf(HEAD), mpmath.mpf(n)

        def integral(x):  # of log_q x
            return (x ** (2 - q) / (2 - q) - x) / (1 - q)

        total = _head_sums(q)[HEAD] + integral(b) - integral(a) + (log_q(q, b) - log_q(q, a)) / 2
        falling = 1  # f'(x) = x**-q; two more derivatives multiply by (q+i)(q+i+1)/x**2
        for j in range(1, BERNOULLI_TERMS + 1):
            if j > 1:
                falling *= (q + 2 * j - 4) * (q + 2 * j - 3)
            total += (mpmath.bernoulli(2 * j) / mpmath.factorial(2 * j)
                      * falling * (b ** (-q - 2 * j + 2) - a ** (-q - 2 * j + 2)))
        return total
