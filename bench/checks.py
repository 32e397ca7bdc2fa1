"""Output checks: each compares program output with the oracle or tests a
property the output must have, and raises :class:`CheckFailed` naming the
worst element.  Tolerances are documented in README.md."""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

import oracle

LD = np.longdouble

RTOL_PRIMITIVE = 1e-12   # scalar primitives vs long-double / mpmath references
RTOL_ORACLE_MP = 1e-14   # long-double reference vs mpmath
RTOL_TABLE = 1e-12       # figure and frequency columns
ATOL_QLOG = 1e-9         # q-log line / parabola residual, as in the verify suite
RTOL_NORM = 1e-10        # quadrature normalization vs closed form C_q/sqrt(beta)
RTOL_SUM = 1e-10         # likelihood and factorial sums
RTOL_DIST = 1e-12        # frequencies, totals, probabilities
RTOL_SPLIT = 1e-10       # split-shift probability vectors vs unsplit
RTOL_ODE = 1e-8          # RK4 at step 1e-4 vs the closed-form solution
RTOL_DRIFT = 1e-10       # drifted readings (partial sums of 1e5 shifts)
RTOL_FOLD = 1e-9         # 1e4-step q-product fold
GRADIENT_RATIO = 1e-6    # |gradient| <= 1e-6 * |curvature| * scale


# worst |err| / allowed seen per check name in this process: the margin left
WORST = {}


class CheckFailed(AssertionError):
    """A program output disagreed with its reference or property."""


def close(name, got, ref, rtol, atol=0.0):
    """|got - ref| <= rtol*|ref| + atol elementwise; got must be finite."""
    got = np.asarray(got, dtype=LD)
    ref = np.asarray(ref, dtype=LD)
    if got.shape != ref.shape:
        raise CheckFailed(f"{name}: shape {got.shape} != reference {ref.shape}")
    if not np.all(np.isfinite(got)):
        i = int(np.argmin(np.isfinite(got).ravel()))
        raise CheckFailed(f"{name}: non-finite value {got.ravel()[i]!r} at {i}")
    if not np.all(np.isfinite(ref)):
        i = int(np.argmin(np.isfinite(ref).ravel()))
        raise CheckFailed(f"{name}: reference not finite at {i}")
    err = np.abs(got - ref)
    allowed = np.broadcast_to(rtol * np.abs(ref) + atol, err.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = float(np.nanmax(np.where(err > 0, err / allowed, 0.0), initial=0.0))
    WORST[name] = max(WORST.get(name, 0.0), ratio)
    if np.any(err > allowed):
        i = int(np.argmax((err - allowed).ravel()))
        raise CheckFailed(
            f"{name}: element {i} got {float(got.ravel()[i])!r}, expected "
            f"{float(ref.ravel()[i])!r} (|err| {float(err.ravel()[i]):.3g} > "
            f"allowed {float(allowed.ravel()[i]):.3g})")


def equal(name, got, expected):
    if got != expected:
        raise CheckFailed(f"{name}: got {got!r}, expected {expected!r}")


def finite_floats(name, cells):
    """Every cell parses as a finite float; returns them as a float array."""
    values = []
    for i, cell in enumerate(cells):
        try:
            v = float(cell)
        except (TypeError, ValueError):
            raise CheckFailed(f"{name}: cell {i} {cell!r} is not a float") from None
        if not math.isfinite(v):
            raise CheckFailed(f"{name}: cell {i} {cell!r} is not finite")
        values.append(v)
    return np.asarray(values, dtype=float)


# ---------------------------------------------------------------------------
# properties


def round_trip(name, q, x, y):
    """log_q(exp_q(x)) == x, evaluated with the oracle on the program's y."""
    close(name, oracle.log_q(q, y), x, RTOL_PRIMITIVE, RTOL_PRIMITIVE)


def curves_coincide(name, curve_id, rescaled, n_curves):
    """The rescaled ordinates of every curve equal those of curve 0."""
    curve_id = np.asarray(curve_id)
    rescaled = np.asarray(rescaled, dtype=float)
    first = rescaled[curve_id == 0]
    for c in range(1, n_curves):
        close(f"{name}[curve {c}]", rescaled[curve_id == c], first, RTOL_TABLE)


def qlog_polynomial(name, q, x_raw, scale, qlog_y, power):
    """qlog_y == -x_raw**power + log_q(scale) (power 1: fig2, power 2: fig3)."""
    expected = -np.asarray(x_raw, dtype=LD) ** power + oracle.log_q(q, scale)
    close(name, qlog_y, expected, 0.0, ATOL_QLOG)


def distribution_properties(name, q, xs, probabilities, slope, intercept):
    """probabilities sum to 1 and log_q(p_i) == slope*x_i + intercept."""
    total = math.fsum(float(p) for p in probabilities)
    close(f"{name} sum(p)", total, 1.0, 0.0, 1e-12)
    affine = LD(slope) * np.asarray(xs, dtype=LD) + LD(intercept)
    close(f"{name} affine q-log", oracle.log_q(q, probabilities), affine,
          0.0, ATOL_QLOG)


def mlp_gradient(name, samples, gradient, curvature):
    xs = np.asarray(samples, dtype=float)
    scale = max(1.0, float(np.max(np.abs(xs - np.mean(xs)))))
    if not curvature < 0.0:
        raise CheckFailed(f"{name}: curvature {curvature!r} is not negative")
    if not abs(gradient) <= GRADIENT_RATIO * abs(curvature) * scale:
        raise CheckFailed(f"{name}: |gradient| {abs(gradient):.3g} > "
                          f"{GRADIENT_RATIO:g}*|curvature|*scale "
                          f"{GRADIENT_RATIO * abs(curvature) * scale:.3g}")


def verify_report(name, cases):
    """cases: iterable of (case name, max_rel_err, tolerance, passed)."""
    count = 0
    for case, err, tol, passed in cases:
        count += 1
        err, tol = float(err), float(tol)
        if not (math.isfinite(err) and err < tol and passed is True):
            raise CheckFailed(f"{name}: case {case} err {err!r} tol {tol!r} "
                              f"passed {passed!r}")
    if count == 0:
        raise CheckFailed(f"{name}: no cases")


# ---------------------------------------------------------------------------
# table checks shared by the in-process and CLI paths


def fig_table(name, which, columns, scales, q, grid):
    """Columns (a dict of arrays) of fig2/fig3 vs the oracle, plus the
    coincidence and q-log shape properties."""
    ref = (oracle.fig2_columns if which == "fig2" else oracle.fig3_columns)(
        scales, q, grid)
    for col, values in ref.items():
        # qlog_y crosses 0: rounding of y_raw shows there as an absolute error
        close(f"{name}.{col}", columns[col], values, RTOL_TABLE,
              RTOL_TABLE if col == "qlog_y" else 0.0)
    curves_coincide(f"{name} rescaled", columns["curve_id"], columns["y_rescaled"],
                    len(scales))
    qlog_polynomial(f"{name} qlog_y", q, columns["x_raw"], columns["scale"],
                    columns["qlog_y"], 1 if which == "fig2" else 2)


def frequency_table(name, columns, q, gamma, log_offset, grid):
    ref = oracle.frequency_columns(q, gamma, log_offset, grid)
    for col, values in ref.items():
        close(f"{name}.{col}", columns[col], values, RTOL_TABLE)
    close(f"{name} rescaled == reference", columns["f_rescaled"],
          np.asarray(columns["reference"], dtype=float), RTOL_TABLE)


def distribution(name, q, xs, shift, frequencies, total, probabilities, slope=None,
                 intercept=None):
    """A distribution against the oracle; without a slope and intercept of
    its own, its probabilities must fit the oracle's affine q-log form."""
    ref = oracle.distribution(q, xs, shift)
    close(f"{name}.frequencies", frequencies, ref["frequencies"], RTOL_DIST)
    close(f"{name}.total", total, ref["total"], RTOL_DIST)
    close(f"{name}.probabilities", probabilities, ref["probabilities"], RTOL_DIST)
    if slope is None:
        slope, intercept = ref["slope"], ref["intercept"]
    else:
        close(f"{name}.slope", slope, ref["slope"], RTOL_DIST)
        close(f"{name}.intercept", intercept, ref["intercept"], RTOL_DIST, RTOL_DIST)
    distribution_properties(name, q, xs, probabilities, slope, intercept)


# ---------------------------------------------------------------------------
# CLI outputs


def cli_exit(name, result, expected=0):
    if result.code != expected:
        raise CheckFailed(f"{name}: exit code {result.code} (stderr: "
                          f"{result.stderr.strip()[-300:]!r})")


def eval_output(name, fn, params, stdout):
    """One float on stdout, equal to the mpmath value of the function."""
    lines = stdout.split()
    if len(lines) != 1:
        raise CheckFailed(f"{name}: expected one value, got {stdout!r}")
    got = finite_floats(name, lines)[0]
    q = params["q"]
    atol = 1e-15
    if fn == "qlog":
        ref = oracle.mp_log_q(q, params["y"])
    elif fn == "qexp":
        ref = oracle.mp_exp_q(q, params["x"])
    elif fn == "qprod":
        ref = oracle.mp_q_product(q, params["x"], params["y"])
    elif fn == "qratio":
        ref = oracle.mp_q_ratio(q, params["x"], params["y"])
    else:
        ref = oracle.mp_tsallis_entropy(q, params["p"])
        if q != 1.0:  # (1 - sum p**q) / (q-1) cancels as q -> 1
            atol = RTOL_PRIMITIVE * sum(v ** q for v in params["p"]) / abs(q - 1.0)
    close(name, got, float(ref), RTOL_PRIMITIVE, atol)


def fig_json(name, which, text, scales, q, grid):
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as err:
        raise CheckFailed(f"{name}: output is not JSON ({err})") from None
    columns = payload["columns"]
    rows = payload["rows"]
    equal(f"{name} row count", len(rows), len(scales) * len(grid))
    cells = finite_floats(name, [v for row in rows for v in row])
    table = cells.reshape(len(rows), len(columns))
    fig_table(name, which, {c: table[:, i] for i, c in enumerate(columns)},
              scales, q, grid)


def canonicalize_csv(name, text, xs, q, shift):
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    equal(f"{name} header", header,
          ["x", "frequency", "p", "q", "c", "n", "slope", "intercept"])
    equal(f"{name} row count", len(body), len(xs))
    cells = finite_floats(name, [v for row in body for v in row])
    table = cells.reshape(len(body), len(header))
    col = {c: table[:, i] for i, c in enumerate(header)}
    close(f"{name}.x", col["x"], xs, 0.0)
    close(f"{name}.q", col["q"], np.full(len(xs), q), 0.0)
    close(f"{name}.c", col["c"], np.full(len(xs), shift), 0.0)
    for c in ("n", "slope", "intercept"):
        if np.any(col[c] != col[c][0]):
            raise CheckFailed(f"{name}.{c}: differs between rows")
    distribution(name, q, xs, shift, col["frequency"], col["n"][0], col["p"],
                 col["slope"][0], col["intercept"][0])


def verify_json(name, text):
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as err:
        raise CheckFailed(f"{name}: output is not JSON ({err})") from None
    if payload.get("pass") is not True:
        raise CheckFailed(f"{name}: report does not pass")
    tolerances = payload["tolerances"]
    verify_report(name, [(c["name"], finite_floats(name, [c["max_rel_err"]])[0],
                          tolerances[c["name"]], c["pass"])
                         for c in payload["cases"]])
