"""Reference values for the benchmark's output checks, computed apart from qdeform.

Nothing here imports the package.  Every value comes from the defining
formula, not from the package's expm1/log1p formulation:

* log_q, exp_q, the q-product and the q-ratio as direct powers, evaluated
  in numpy long double (64-bit mantissa on x86-64, so the reference's own
  rounding sits ~2000x below one double ulp), with ``mp_*`` twins at 40
  digits in mpmath that cross-check the long-double values and replace them
  where |1-q| < NEAR_ONE (there the direct power cancels);
* the q-Gaussian normalization C_q / sqrt(beta) in closed form from
  ``math.lgamma`` (Umarov, Tsallis & Steinberg, Milan J. Math. 76 (2008) 307);
* deformed log-factorial sums in closed form: n(n-1)/2 at q = 0,
  lgamma(n+1) at q = 1, n - H_n at q = 2, and at any other q the power
  sum sum_k k**(1-q) from its Euler-Maclaurin expansion around zeta(q-1);
* figure columns, frequency curves, likelihoods, q-exponential
  distributions, ODE solutions and scale-drift readings as numpy formulas.

Arrays are broadcast, so ``q`` may be a scalar or one index per element.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

LD = np.longdouble
MP_DIGITS = 40
NEAR_ONE = 1e-3  # below this |1-q| (or |(1-q) log y|) a direct power cancels


def _ld(value):
    return np.asarray(value, dtype=LD)


def _split_index(q):
    """(1-q) with the classical points masked to 1, and the classical mask."""
    omq = 1 - _ld(q)
    classical = omq == 0
    return np.where(classical, LD(1), omq), classical


def _refine(q, values, mp_fn, *args, cancels=None):
    """Elements with 0 < |1-q| < NEAR_ONE, or where ``cancels`` is true,
    recomputed by mp_fn in mpmath."""
    values = np.asarray(values, dtype=LD)
    flat_q = np.broadcast_to(_ld(q), values.shape).ravel()
    mask = (flat_q != 1) & (np.abs(1 - flat_q) < NEAR_ONE)
    if cancels is not None:
        mask |= np.broadcast_to(cancels, values.shape).ravel()
    near = np.flatnonzero(mask)
    if near.size == 0:
        return values
    out = values.copy().reshape(-1)
    flat_args = [np.broadcast_to(_ld(a), values.shape).ravel() for a in args]
    for i in near:
        exact = mp_fn(float(flat_q[i]), *(float(a[i]) for a in flat_args))
        out[i] = LD(mpmath.nstr(exact, 30))
    return out.reshape(values.shape)


def log_q(q, y):
    """(y**(1-q) - 1) / (1-q); log(y) at q = 1."""
    omq, classical = _split_index(q)
    y = _ld(y)
    with np.errstate(all="ignore"):
        values = np.where(classical, np.log(y), (y ** omq - 1) / omq)
        # y**(1-q) - 1 cancels for y near 1
        cancels = ~classical & (np.abs(omq * np.log(y)) < NEAR_ONE)
    return _refine(q, values, mp_log_q, y, cancels=cancels)


def exp_q(q, x, cutoff=False):
    """(1 + (1-q)*x) ** (1/(1-q)); exp(x) at q = 1.

    NaN where the bracket is not positive, or 0 there with ``cutoff``.
    """
    omq, classical = _split_index(q)
    x = _ld(x)
    bracket = 1 + omq * x
    with np.errstate(all="ignore"):
        deformed = np.where(bracket > 0, bracket ** (1 / omq),
                            LD(0) if cutoff else LD(np.nan))
        values = np.where(classical, np.exp(x), deformed)
    return _refine(q, values, mp_exp_q, x)


def q_product(q, x, y):
    """(x**(1-q) + y**(1-q) - 1) ** (1/(1-q)); x*y at q = 1."""
    omq, classical = _split_index(q)
    x, y = _ld(x), _ld(y)
    with np.errstate(all="ignore"):
        deformed = (x ** omq + y ** omq - 1) ** (1 / omq)
    return _refine(q, np.where(classical, x * y, deformed), mp_q_product, x, y)


def q_ratio(q, x, y):
    """(x**(1-q) - y**(1-q) + 1) ** (1/(1-q)); x/y at q = 1."""
    omq, classical = _split_index(q)
    x, y = _ld(x), _ld(y)
    with np.errstate(all="ignore"):
        deformed = (x ** omq - y ** omq + 1) ** (1 / omq)
    return _refine(q, np.where(classical, x / y, deformed), mp_q_ratio, x, y)


def shift_expansion(q, c):
    """(exp_q(c), exp_q(c)**(1-q)): the second factor is the bracket itself."""
    omq, classical = _split_index(q)
    y_scale = exp_q(q, c)
    x_scale = np.where(classical, LD(1), 1 + omq * _ld(c))
    return y_scale, x_scale


def analytic_solution(q, scale, direction, x):
    """Solution of dy/dx = direction * y**q through (0, scale):
    y**(1-q) = scale**(1-q) + (1-q) * direction * x."""
    omq, classical = _split_index(q)
    scale, x = _ld(scale), _ld(x)
    d = _ld(direction)
    with np.errstate(all="ignore"):
        deformed = (scale ** omq + omq * d * x) ** (1 / omq)
    values = np.where(classical, scale * np.exp(d * x), deformed)
    return _refine(q, values, mp_analytic_solution, scale, d, x)


def ode_solution(q, x0, y0, direction, xs):
    """Same family through (x0, y0), sampled at ``xs``."""
    return analytic_solution(q, y0, direction, _ld(xs) - LD(x0))


# ---------------------------------------------------------------------------
# mpmath cross-check (scalars)


def mp_log_q(q, y):
    with mpmath.workdps(MP_DIGITS):
        q, y = mpmath.mpf(q), mpmath.mpf(y)
        if q == 1:
            return mpmath.log(y)
        return (y ** (1 - q) - 1) / (1 - q)


def mp_exp_q(q, x):
    with mpmath.workdps(MP_DIGITS):
        q, x = mpmath.mpf(q), mpmath.mpf(x)
        if q == 1:
            return mpmath.exp(x)
        return (1 + (1 - q) * x) ** (1 / (1 - q))


def mp_q_product(q, x, y):
    with mpmath.workdps(MP_DIGITS):
        q, x, y = mpmath.mpf(q), mpmath.mpf(x), mpmath.mpf(y)
        if q == 1:
            return x * y
        return (x ** (1 - q) + y ** (1 - q) - 1) ** (1 / (1 - q))


def mp_q_ratio(q, x, y):
    with mpmath.workdps(MP_DIGITS):
        q, x, y = mpmath.mpf(q), mpmath.mpf(x), mpmath.mpf(y)
        if q == 1:
            return x / y
        return (x ** (1 - q) - y ** (1 - q) + 1) ** (1 / (1 - q))


def mp_analytic_solution(q, scale, direction, x):
    with mpmath.workdps(MP_DIGITS):
        q, s = mpmath.mpf(q), mpmath.mpf(scale)
        d, x = mpmath.mpf(direction), mpmath.mpf(x)
        if q == 1:
            return s * mpmath.exp(d * x)
        return (s ** (1 - q) + (1 - q) * d * x) ** (1 / (1 - q))


def mp_tsallis_entropy(q, p):
    with mpmath.workdps(MP_DIGITS):
        terms = [mpmath.mpf(v) for v in p if v > 0]
        if q == 1.0:
            return -mpmath.fsum(t * mpmath.log(t) for t in terms)
        q = mpmath.mpf(q)
        return (1 - mpmath.fsum(t ** q for t in terms)) / (q - 1)


# ---------------------------------------------------------------------------
# closed forms


def qgauss_norm(q: float, beta: float) -> float:
    """Integral of exp_q(-beta*e**2) over its support, C_q / sqrt(beta)."""
    if q == 1.0:
        c_q = math.sqrt(math.pi)
    elif q < 1.0:
        c_q = (2.0 * math.sqrt(math.pi) / ((3.0 - q) * math.sqrt(1.0 - q))
               * math.exp(math.lgamma(1.0 / (1.0 - q))
                          - math.lgamma((3.0 - q) / (2.0 * (1.0 - q)))))
    elif q < 3.0:
        c_q = (math.sqrt(math.pi) / math.sqrt(q - 1.0)
               * math.exp(math.lgamma((3.0 - q) / (2.0 * (q - 1.0)))
                          - math.lgamma(1.0 / (q - 1.0))))
    else:
        raise ValueError("no finite normalization for q >= 3")
    return c_q / math.sqrt(beta)


def power_sum(p: float, n: int):
    """sum_{k=1..n} k**p (p != -1) by the Euler-Maclaurin expansion
    zeta(-p) + n**(p+1)/(p+1) + n**p/2 + sum_j B_2j/(2j)! * (d/dn)**(2j-1) n**p,
    whose terms fall as n**(p-2j+1), at MP_DIGITS digits.  The expansion is
    asymptotic: eleven terms are exact to double precision for n >= 1000."""
    if n < 1000:
        raise ValueError("the power-sum expansion needs n >= 1000")
    with mpmath.workdps(MP_DIGITS):
        p, m = mpmath.mpf(p), mpmath.mpf(n)
        total = mpmath.zeta(-p) + m ** (p + 1) / (p + 1) + m ** p / 2
        falling = p  # p (p-1) ... (p-2j+2)
        for j in range(1, 12):
            if j > 1:
                falling *= (p - 2 * j + 3) * (p - 2 * j + 2)
            total += (mpmath.bernoulli(2 * j) / mpmath.factorial(2 * j)
                      * falling * m ** (p - 2 * j + 1))
        return total


def log_factorial(q: float, n: int) -> float:
    """sum_{k=1..n} log_q(k) in closed form."""
    if q == 0.0:
        return n * (n - 1) / 2.0
    if q == 1.0:
        return math.lgamma(n + 1.0)
    with mpmath.workdps(MP_DIGITS):
        if q == 2.0:
            return float(n - mpmath.harmonic(n))
        return float((power_sum(1.0 - q, n) - n) / (1 - mpmath.mpf(q)))


# ---------------------------------------------------------------------------
# tables and models


def fig2_columns(scales, q, grid):
    """Columns of the decay-curve table, scale-major like the program's rows.

    For scale C: x_raw = t*C**(1-q), y_raw = C*exp_q(-t), qlog_y =
    log_q(C) - x_raw.
    """
    grid = _ld(grid)
    cols = {k: [] for k in ("curve_id", "scale", "x_raw", "y_raw",
                            "x_rescaled", "y_rescaled", "qlog_y")}
    for ci, c in enumerate(scales):
        c = LD(c)
        s = c ** (1 - LD(q))
        y_rescaled = exp_q(q, -grid)
        cols["curve_id"].append(np.full(grid.shape, ci, dtype=LD))
        cols["scale"].append(np.full(grid.shape, c, dtype=LD))
        cols["x_raw"].append(grid * s)
        cols["y_raw"].append(c * y_rescaled)
        cols["x_rescaled"].append(grid)
        cols["y_rescaled"].append(y_rescaled)
        cols["qlog_y"].append(log_q(q, c) - grid * s)
    return {k: np.concatenate(v) for k, v in cols.items()}


def fig3_columns(scales, q, grid):
    """Columns of the bell-curve table: x_raw = t*c**((1-q)/2),
    y_raw = c*exp_q(-t**2), qlog_y = log_q(c) - x_raw**2."""
    grid = _ld(grid)
    cols = {k: [] for k in ("curve_id", "scale", "x_raw", "y_raw",
                            "x_rescaled", "y_rescaled", "qlog_y")}
    for ci, c in enumerate(scales):
        c = LD(c)
        x_scale = c ** ((1 - LD(q)) / 2)
        y_rescaled = exp_q(q, -grid * grid)
        cols["curve_id"].append(np.full(grid.shape, ci, dtype=LD))
        cols["scale"].append(np.full(grid.shape, c, dtype=LD))
        cols["x_raw"].append(grid * x_scale)
        cols["y_raw"].append(c * y_rescaled)
        cols["x_rescaled"].append(grid)
        cols["y_rescaled"].append(y_rescaled)
        cols["qlog_y"].append(log_q(q, c) - grid * grid * x_scale * x_scale)
    return {k: np.concatenate(v) for k, v in cols.items()}


def frequency_columns(q, gamma, log_offset, grid):
    """Frequency curve exp_q(-gamma*e**2 + log_offset) at e = t*scale**((1-q)/2)
    with scale = exp_q(log_offset); rescaled by scale it is exp_q(-gamma*t**2)."""
    grid = _ld(grid)
    scale = exp_q(q, log_offset)
    x_scale = scale ** ((1 - LD(q)) / 2)
    e_raw = grid * x_scale
    reference = exp_q(q, -LD(gamma) * grid * grid)
    return {
        "e_raw": e_raw,
        "f_raw": exp_q(q, -LD(gamma) * e_raw * e_raw + LD(log_offset)),
        "e_rescaled": grid,
        "f_rescaled": reference,
        "reference": reference,
    }


def qgauss_beta(q, ode_coeff, log_offset):
    return -ode_coeff / (2.0 * (1.0 + (1.0 - q) * log_offset))


def log_likelihood_terms(q, beta, theta, samples):
    """log_q of the normalized density at each sample, as long doubles."""
    e = _ld(samples) - LD(theta)
    pdf = exp_q(q, -LD(beta) * e * e, cutoff=True) / LD(qgauss_norm(q, beta))
    return log_q(q, pdf)


def distribution(q, xs, shift):
    """Frequencies exp_q(-x + shift), their total, probabilities and the
    affine q-log form slope = -n**(q-1), intercept = n**(q-1)*shift -
    log_{2-q}(n)."""
    freqs = exp_q(q, -_ld(xs) + LD(shift))
    total = LD(math.fsum(freqs.astype(float).tolist()))
    n_pow = total ** (LD(q) - 1)
    return {
        "frequencies": freqs,
        "total": total,
        "probabilities": freqs / total,
        "slope": -n_pow,
        "intercept": n_pow * LD(shift) - log_q(2.0 - q, total),
    }


def drifted_readings(q, shifts):
    """x_t / (1 + (1-q) * sum_{i<t} x_i)."""
    shifts = _ld(shifts)
    partial = np.concatenate(([LD(0)], np.cumsum(shifts)[:-1]))
    return shifts / (1 + (1 - LD(q)) * partial)


def fold(q, factors):
    """exp_q of the sum of the factors' deformed logs."""
    total = math.fsum(log_q(q, factors).astype(float).tolist())
    return exp_q(q, total)
