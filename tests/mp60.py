"""60-digit references for the deformed logarithm and exponential.

Each function takes doubles or mpmath numbers and returns an mpmath number
(``trajectory`` a list of them) computed at 60 significant digits from the
defining formula; arithmetic on the result keeps those digits only inside
``mpmath.workdps(60)``.
"""

import mpmath

DIGITS = 60


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
