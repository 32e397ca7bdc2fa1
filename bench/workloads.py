"""The operations of one round of each workload, with the check of each.

A round is a list of batches.  A batch calls one target once per argument
tuple, timing each call alone; its check then runs on the inputs and
outputs, outside the timed region.  Targets named by a dotted path are
looked up in qdeform when the batch starts, so a traced run calls the
wrapped functions.  Each batch belongs to one group, which names the
end-to-end metric its time counts in:

    eval       numeric functions and models      -> eval_s
    tables     figure and frequency tables       -> tables_s
    canonical  distributions and canonical forms -> canonical_s
    verify     the verification suites           -> verify_s
"""

from __future__ import annotations

import contextlib
import functools
import io
import math
import os
import select
import subprocess
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import mpmath
import numpy as np

import checks
import inputs
import oracle
import speed

GROUPS = ("eval", "tables", "canonical", "verify")
MP_SAMPLE = 20  # primitive calls per batch also checked against mpmath
PROCESS_TIMEOUT_S = 150.0

FIG_DEFAULTS = {  # the CLI's documented `fig` defaults
    "fig2": ((1.0, 10.0, 20.0), 1.3, np.linspace(0.0, 5.0, 501)),
    "fig3": ((1.0, 10.0, 100.0), 1.7, np.linspace(-5.0, 5.0, 501)),
}
FIG_COLUMNS = ("curve_id", "scale", "x_raw", "y_raw", "x_rescaled", "y_rescaled",
               "qlog_y")
FREQUENCY_COLUMNS = ("e_raw", "f_raw", "e_rescaled", "f_rescaled", "reference")


@dataclass
class Batch:
    group: str
    label: str
    target: object                 # dotted path in qdeform, or a callable
    args: object                   # list of argument tuples, or state -> list
    check: Callable                # check(args, outputs)
    key: str | None = None         # keep the outputs in the round state
    work: Callable = lambda args: 1  # work units of one call, for the detail


class Failure:
    def __init__(self, exc):
        self.exc = exc

    def __repr__(self):
        return f"{type(self.exc).__name__}: {self.exc}"


def resolve(target):
    if callable(target):
        return target
    import qdeform

    obj = qdeform
    for part in target.split("."):
        obj = getattr(obj, part)
    return obj


def call_all(fn, arg_list, last_calibration=None):
    """Call fn(*args) for each tuple, timing each call alone.

    Returns the outputs (Failure on exception), the wall seconds of each
    call and the same in reference seconds (speed.py).  The calibration is
    fn's ``calibration`` attribute (speed.KERNEL for in-process calls); it
    runs after every ``segment_s`` of calls and before the first call,
    unless ``last_calibration`` (a dict kept across the batches of a round)
    holds its latest value, which is updated on return.
    """
    cal = getattr(fn, "calibration", speed.KERNEL)
    last = {} if last_calibration is None else last_calibration
    outputs = []
    seconds = []
    scaled = []
    clock = time.perf_counter
    cal_start = last[cal] if cal in last else cal.measure()
    segment, segment_s = 0, 0.0
    for i, args in enumerate(arg_list):
        start = clock()
        try:
            out = fn(*args)
        except Exception as exc:  # a program fault: counted, the run goes on
            out = Failure(exc)
        elapsed = clock() - start
        seconds.append(elapsed)
        outputs.append(out)
        segment_s += elapsed
        if segment_s >= cal.segment_s or i == len(arg_list) - 1:
            cal_end = cal.measure()
            f = cal.factor(cal_start, cal_end)
            scaled.extend(s * f for s in seconds[segment:])
            cal_start, segment, segment_s = cal_end, i + 1, 0.0
    last[cal] = cal_start
    return outputs, seconds, scaled


# ---------------------------------------------------------------------------
# CLI helpers


@dataclass
class ProcessResult:
    code: int
    stdout: str
    stderr: str
    peak_rss_mb: float


class ProcessRunner:
    """Runs one ``qdeform`` process at a time from the checkout's ``src``.

    With ``trace_dir`` each process runs under ``tracer.py`` and leaves its
    span statistics there.
    """

    def __init__(self, root, python, out_dir, trace_dir=None):
        self.root = Path(root)
        self.python = python
        self.out_dir = Path(out_dir)
        self.trace_dir = trace_dir
        self.env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        self.calibration = speed.process_calibration(python, self.root)
        self.peak_rss_mb = 0.0
        self.trace_files = []

    def __call__(self, argv):
        if self.trace_dir is None:
            cmd = [self.python, "-m", "qdeform", *argv]
        else:
            stats = Path(self.trace_dir) / f"child-{len(self.trace_files)}.json"
            self.trace_files.append(stats)
            cmd = [self.python, str(Path(__file__).with_name("tracer.py")), str(stats),
                   "--", *argv]
        with tempfile.TemporaryFile(dir=self.out_dir) as out, \
                tempfile.TemporaryFile(dir=self.out_dir) as err:
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env,
                                    cwd=self.root)
            pidfd = os.pidfd_open(proc.pid)
            try:
                exited, _, _ = select.select([pidfd], [], [], PROCESS_TIMEOUT_S)
            finally:
                os.close(pidfd)
            if not exited:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            result = ProcessResult(proc.returncode, out.read().decode(),
                                   err.read().decode(), usage.ru_maxrss / 1024.0)
        self.peak_rss_mb = max(self.peak_rss_mb, result.peak_rss_mb)
        return result


def cli_inprocess(argv):
    """qdeform.cli.main(argv) in this process, with stdout captured."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = resolve("cli.main")(argv)
    return code, buffer.getvalue()


# ---------------------------------------------------------------------------
# checks of in-process outputs


def _columns(*arrays):
    return [np.asarray(a, dtype=float) for a in zip(*arrays)] if arrays else []


def check_q_log(args, outs):
    q, y = _columns(*args)
    checks.close("q_log", outs, oracle.log_q(q, y), checks.RTOL_PRIMITIVE)
    _mp_cross_check("q_log", args, outs, oracle.mp_log_q, oracle.log_q)


def check_q_exp(args, outs):
    q, x = _columns(*args)
    checks.close("q_exp", outs, oracle.exp_q(q, x), checks.RTOL_PRIMITIVE)
    checks.round_trip("q_exp round trip", q, x, outs)
    _mp_cross_check("q_exp", args, outs, oracle.mp_exp_q, oracle.exp_q)


def check_q_product(args, outs):
    q, x, y = _columns(*args)
    checks.close("q_product", outs, oracle.q_product(q, x, y), checks.RTOL_PRIMITIVE)
    _mp_cross_check("q_product", args, outs, oracle.mp_q_product, oracle.q_product)


def check_q_ratio(args, outs):
    q, x, y = _columns(*args)
    checks.close("q_ratio", outs, oracle.q_ratio(q, x, y), checks.RTOL_PRIMITIVE)
    _mp_cross_check("q_ratio", args, outs, oracle.mp_q_ratio, oracle.q_ratio)


def check_q_log_of_ratio(args, outs):
    q, y, x = _columns(*args)
    ld = np.longdouble
    ref = oracle.log_q(q, np.asarray(y, dtype=ld) / np.asarray(x, dtype=ld))
    # the identity subtracts log_q(y) - log_q(x): allow rounding on those terms
    terms = np.asarray(x, dtype=ld) ** (np.asarray(q, dtype=ld) - 1) * (
        np.abs(oracle.log_q(q, y)) + np.abs(oracle.log_q(q, x)))
    checks.close("q_log_of_ratio", outs, ref, checks.RTOL_PRIMITIVE,
                 checks.RTOL_PRIMITIVE * terms)


def check_shift_expansion(args, outs):
    q, c = _columns(*args)
    y_ref, x_ref = oracle.shift_expansion(q, c)
    y_got, x_got = _columns(*outs)
    checks.close("shift_expansion y_scale", y_got, y_ref, checks.RTOL_PRIMITIVE)
    checks.close("shift_expansion x_scale", x_got, x_ref, checks.RTOL_PRIMITIVE)


def check_analytic_solution(args, outs):
    q, scale, direction, x = _columns(*args)
    checks.close("analytic_solution", outs,
                 oracle.analytic_solution(q, scale, direction, x),
                 checks.RTOL_PRIMITIVE)


def _mp_cross_check(name, args, outs, mp_fn, ld_fn):
    """The first MP_SAMPLE calls against mpmath, and the long-double
    reference against mpmath on the same inputs."""
    for a, got in list(zip(args, outs))[:MP_SAMPLE]:
        ref = mp_fn(*a)
        checks.close(f"{name} vs mpmath", got, float(ref), checks.RTOL_PRIMITIVE)
        ld = ld_fn(*a)
        checks.close(f"{name} long-double oracle vs mpmath", ld,
                     np.longdouble(mpmath.nstr(ref, 30)), checks.RTOL_ORACLE_MP)


def check_models(args, outs):
    for (q, coeff, offset), model in zip(args, outs):
        beta = oracle.qgauss_beta(q, coeff, offset)
        checks.equal("model.q", model.q, q)
        checks.close("model.gamma", model.gamma, -coeff / 2.0, 0.0)
        checks.close("model.beta", model.beta, beta, checks.RTOL_PRIMITIVE)
        checks.close("model.scale", model.scale, oracle.exp_q(q, offset),
                     checks.RTOL_PRIMITIVE)
        checks.close("model.norm", model.norm, oracle.qgauss_norm(q, beta),
                     checks.RTOL_NORM)


def check_mlp(args, outs):
    for (_, samples), (gradient, curvature) in zip(args, outs):
        checks.mlp_gradient("mlp_stationarity", samples, gradient, curvature)


def check_likelihood(args, outs):
    for (model, theta, samples), got in zip(args, outs):
        beta = oracle.qgauss_beta(model.q, model.ode_coeff, model.log_offset)
        terms = oracle.log_likelihood_terms(model.q, beta, theta, samples)
        ref = math.fsum(terms.astype(float).tolist())
        scale = float(np.sum(np.abs(terms)))
        checks.close("q_log_likelihood", got, ref, 0.0, checks.RTOL_SUM * scale)


_log_factorial = functools.lru_cache(maxsize=None)(oracle.log_factorial)


def check_factorial(args, outs):
    for (q, n), got in zip(args, outs):
        checks.close(f"q_log_factorial(q={q}, n={n})", got, _log_factorial(q, n),
                     checks.RTOL_SUM)


def check_multinomial(args, outs):
    for (q, counts), got in zip(args, outs):
        n = sum(counts)
        ref = _log_factorial(q, n) - math.fsum(_log_factorial(q, c) for c in counts)
        scale = abs(_log_factorial(q, n)) + sum(abs(_log_factorial(q, c)) for c in counts)
        checks.close(f"q_log_multinomial(q={q})", got, ref, 0.0,
                     checks.RTOL_SUM * scale)


def check_ode(args, outs):
    for (q, x0, y0, direction, x_end, step), traj in zip(args, outs):
        n_steps = math.ceil((x_end - x0) / step)
        checks.equal("integrate_ode samples", len(traj.xs), n_steps + 1)
        if not np.all(np.diff(traj.xs) > 0):
            raise checks.CheckFailed("integrate_ode: xs not strictly increasing")
        checks.close("integrate_ode end points", [traj.xs[0], traj.xs[-1]],
                     [x0, x_end], 1e-12)
        checks.close("integrate_ode ys", traj.ys,
                     oracle.ode_solution(q, x0, y0, direction, traj.xs),
                     checks.RTOL_ODE)


def check_drift(args, outs):
    for (q, shifts), seq in zip(args, outs):
        checks.close("scale_drift_expand shifts", seq.shifts, shifts, 0.0)
        checks.close("scale_drift_expand observed", seq.observed,
                     oracle.drifted_readings(q, shifts), checks.RTOL_DRIFT)


def check_fold(args, outs):
    for (q, factors), got in zip(args, outs):
        checks.close("q_product_fold", got, oracle.fold(q, factors), checks.RTOL_FOLD)


def check_cli_eval_inprocess(args, outs):
    for (argv,), (code, stdout) in zip(args, outs):
        checks.equal(f"cli.main({argv}) exit code", code, 0)
        fn, params = _eval_params(argv)
        checks.eval_output(f"eval {fn}", fn, params, stdout)


def _eval_params(argv):
    fn = argv[1]
    params = {}
    for flag, value in zip(argv[2::2], argv[3::2]):
        key = flag.lstrip("-")
        params[key] = [float(v) for v in value.split(",")] if key == "p" else float(value)
    return fn, params


def check_table_meta(columns, n_rows):
    def check(args, outs):
        for a, table in zip(args, outs):
            checks.equal("table columns", tuple(table.columns), columns)
            checks.equal("table rows", len(table.rows), n_rows(a))
    return check


def check_fig_columns(which, params):
    scales, q, grid = params

    def check(args, outs):
        cols = {name: got for (_, name), got in zip(args, outs)}
        checks.fig_table(which, which, cols, scales, q, grid)
    return check


def check_frequency_columns(params):
    q, gamma, log_offset, grid = params

    def check(args, outs):
        cols = {name: got for (_, name), got in zip(args, outs)}
        checks.frequency_table("frequency_rescale", cols, q, gamma, log_offset, grid)
    return check


def check_curves(n_curves, n_points):
    def check(args, outs):
        for (table,), grouped in zip(args, outs):
            checks.equal("curves keys", list(grouped), list(range(n_curves)))
            for cid, rows in grouped.items():
                expected = table.rows[cid * n_points:(cid + 1) * n_points]
                if len(rows) != n_points or any(
                        a is not b for a, b in zip(rows, expected)):
                    raise checks.CheckFailed(f"curves: curve {cid} rows differ")
    return check


def check_distributions(args, outs):
    for (q, xs, shift), dist in zip(args, outs):
        checks.close("distribution.xs", dist.xs, xs, 0.0)
        checks.distribution("build_distribution", q, xs, shift, dist.frequencies,
                            dist.total, dist.probabilities)


def check_canonical_forms(cases):
    def check(args, outs):
        for (q, xs, shift, _), form in zip(cases, outs):
            ref = oracle.distribution(q, xs, shift)
            checks.close("canonical_form.slope", form.slope, ref["slope"],
                         checks.RTOL_DIST)
            checks.close("canonical_form.intercept", form.intercept,
                         ref["intercept"], checks.RTOL_DIST, checks.RTOL_DIST)
            checks.distribution_properties("canonical_form", q, xs,
                                           ref["probabilities"].astype(float),
                                           form.slope, form.intercept)
    return check


def check_splits(args, outs):
    for (q, xs, c1, c2), pair in zip(args, outs):
        ref = oracle.distribution(q, xs, c1 + c2)["probabilities"]
        for side, probs in zip("ab", pair):
            checks.close(f"split_representation {side}", probs, ref, checks.RTOL_SPLIT)
            checks.close(f"split_representation {side} sum",
                         math.fsum(probs), 1.0, 0.0, 1e-12)


def check_run_all(args, outs):
    for (seed,), report in zip(args, outs):
        checks.equal("run_all seed", report.seed, seed)
        checks.verify_report("run_all", [(c.name, c.max_rel_err, c.tolerance, c.passed)
                                         for c in report.cases])
        checks.equal("run_all passed", report.passed, True)


def check_canonicalize_file(path_out, xs, q, shift):
    def check(args, outs):
        out = Path(path_out)
        for code in outs:
            checks.equal("canonicalize exit code", code, 0)
            if not out.is_file():
                raise checks.CheckFailed(f"canonicalize: {out} was not written")
            checks.canonicalize_csv("canonicalize", out.read_text(encoding="utf-8"),
                                    xs, q, shift)
            out.unlink()  # the next round must write it again
    return check


def _read_values(path):
    return np.loadtxt(path, skiprows=1, ndmin=1)


# ---------------------------------------------------------------------------
# rounds


def _table_batches(param_sets, key_prefix):
    """fig2 / fig3 / frequency tables, then every column and the curves."""
    batches = []
    for i, params in enumerate(param_sets):
        batches += _table_set(params, f"{key_prefix}{i}_")
    return batches


def _table_set(params, key_prefix):
    batches = []
    for which, target in (("fig2", "dynamics.fig2_data"), ("fig3", "qgaussian.fig3_data")):
        scales, q, grid = params[which]
        n = len(grid)
        key = f"{key_prefix}{which}"
        batches.append(Batch("tables", target, target, [(scales, q, grid)],
                             check_table_meta(FIG_COLUMNS, lambda a: len(a[0]) * len(a[2])),
                             key=key, work=lambda a: len(a[0]) * len(a[2])))
        batches.append(Batch("tables", "tables.FigureTable.column",
                             "tables.FigureTable.column",
                             lambda st, key=key: [(st[key][0], c) for c in FIG_COLUMNS],
                             check_fig_columns(which, (scales, q, grid)),
                             work=lambda a: len(a[0].rows)))
        batches.append(Batch("tables", "tables.FigureTable.curves",
                             "tables.FigureTable.curves",
                             lambda st, key=key: [(st[key][0],)],
                             check_curves(len(scales), n),
                             work=lambda a: len(a[0].rows)))
    q, gamma, log_offset, grid = params["frequency"]
    key = f"{key_prefix}frequency"
    batches.append(Batch("tables", "qgaussian.frequency_rescale",
                         "qgaussian.frequency_rescale", [(q, gamma, log_offset, grid)],
                         check_table_meta(FREQUENCY_COLUMNS, lambda a: len(a[3])),
                         key=key, work=lambda a: len(a[3])))
    batches.append(Batch("tables", "tables.FigureTable.column",
                         "tables.FigureTable.column",
                         lambda st: [(st[key][0], c) for c in FREQUENCY_COLUMNS],
                         check_frequency_columns(params["frequency"]),
                         work=lambda a: len(a[0].rows)))
    return batches


PRIMITIVE_CHECKS = {
    "core.q_log": check_q_log,
    "core.q_exp": check_q_exp,
    "algebra.q_product": check_q_product,
    "algebra.q_ratio": check_q_ratio,
    "core.q_log_of_ratio": check_q_log_of_ratio,
    "dynamics.shift_expansion": check_shift_expansion,
    "dynamics.analytic_solution": check_analytic_solution,
}


def _canonical_batches(cases):
    return [
        Batch("canonical", "canonical.build_distribution", "canonical.build_distribution",
              [(q, xs.tolist(), shift) for q, xs, shift, _ in cases],
              check_distributions, key="dists", work=lambda a: len(a[1])),
        Batch("canonical", "canonical.canonical_form", "canonical.canonical_form",
              lambda st: [(d,) for d in st["dists"]], check_canonical_forms(cases)),
        Batch("canonical", "canonical.split_representation",
              "canonical.split_representation",
              [(q, xs.tolist(), c1, shift - c1) for q, xs, shift, c1 in cases],
              check_splits, work=lambda a: 2 * len(a[1])),
    ]


def scalar_round(inp, ctx):
    batches = [Batch("eval", label, label, args, PRIMITIVE_CHECKS[label])
               for label, args in inp["primitives"].items()]
    batches += [
        Batch("eval", "qgaussian.QGaussianModel", "qgaussian.QGaussianModel",
              inp["models"], check_models, key="models"),
        Batch("eval", "qgaussian.mlp_stationarity", "qgaussian.mlp_stationarity",
              lambda st: [(st["models"][m], samples) for m, samples in inp["mlp"]],
              check_mlp, work=lambda a: len(a[1])),
        Batch("eval", "cli.main eval", cli_inprocess,
              [(inputs.eval_argv(fn, p),) for fn, p in inp["eval_argvs"]],
              check_cli_eval_inprocess),
    ]
    batches += _table_batches(inp["tables"], "scalar_")
    batches += _canonical_batches(inp["canonical"])
    batches.append(Batch("verify", "verify.run_all", "verify.run_all",
                         [(inp["verify_seed"],)], check_run_all))
    return batches


def bulk_round(inp, ctx):
    canon_q, canon_shift = inp["canon_file_params"]
    canon_out = str(Path(ctx["out_dir"]) / "bulk-canon-out.csv")
    canon_xs = _read_values(inp["canon_file"])
    batches = [
        Batch("eval", "qgaussian.QGaussianModel", "qgaussian.QGaussianModel",
              inp["models"], check_models, key="models"),
        Batch("eval", "qgaussian.q_log_likelihood", "qgaussian.q_log_likelihood",
              lambda st: [(st["models"][i], theta, samples)
                          for i, (theta, samples) in enumerate(inp["likelihood"])],
              check_likelihood, work=lambda a: len(a[2])),
        Batch("eval", "combinatorics.q_log_factorial", "combinatorics.q_log_factorial",
              inp["factorial"], check_factorial, work=lambda a: a[1]),
        Batch("eval", "combinatorics.q_log_multinomial",
              "combinatorics.q_log_multinomial", inp["multinomial"], check_multinomial,
              work=lambda a: 2 * sum(a[1])),
        Batch("eval", "dynamics.integrate_ode", "dynamics.integrate_ode", inp["ode"],
              check_ode, work=lambda a: math.ceil((a[4] - a[1]) / a[5])),
        Batch("eval", "algebra.scale_drift_expand", "algebra.scale_drift_expand",
              [inp["drift"]], check_drift, work=lambda a: len(a[1])),
        Batch("eval", "algebra.q_product_fold", "algebra.q_product_fold",
              [inp["fold"]], check_fold, work=lambda a: len(a[1])),
    ]
    batches += _table_batches(inp["tables"], "bulk_")
    batches += _canonical_batches(inp["canonical"])
    batches.append(Batch(
        "canonical", "cli.main canonicalize", lambda argv: cli_inprocess(argv)[0],
        [(["canonicalize", inp["canon_file"], "--q", repr(canon_q), "--c",
           repr(canon_shift), "--format", "csv", "--out", canon_out],)],
        check_canonicalize_file(canon_out, canon_xs, canon_q, canon_shift),
        work=lambda a: len(canon_xs)))
    batches.append(Batch("verify", "verify.run_all", "verify.run_all",
                         [(inp["verify_seed"],)], check_run_all))
    return batches


def cli_round(inp, ctx):
    run = ctx["process_runner"]
    canon_q, canon_shift = inp["canon_file_params"]
    canon_xs = _read_values(inp["canon_file"])

    def check_eval(args, outs):
        for (argv,), result in zip(args, outs):
            checks.cli_exit(" ".join(argv), result)
            fn, params = _eval_params(argv)
            checks.eval_output(f"eval {fn}", fn, params, result.stdout)

    def check_fig(args, outs):
        for (argv,), result in zip(args, outs):
            checks.cli_exit(" ".join(argv), result)
            which = argv[1]
            scales, q, grid = FIG_DEFAULTS[which]
            checks.fig_json(f"fig {which}", which, result.stdout, scales, q, grid)

    def check_canonicalize(args, outs):
        for result in outs:
            checks.cli_exit("canonicalize", result)
            checks.canonicalize_csv("canonicalize", result.stdout, canon_xs, canon_q,
                                    canon_shift)

    def check_verify(args, outs):
        for result in outs:
            checks.cli_exit("verify all", result)
            checks.verify_json("verify all", result.stdout)

    return [
        Batch("eval", "qdeform eval", run,
              [(inputs.eval_argv(fn, p),) for fn, p in inp["eval_argvs"]], check_eval),
        Batch("tables", "qdeform fig", run,
              [(["fig", which, "--format", "json"],) for which in ("fig2", "fig3")],
              check_fig),
        Batch("canonical", "qdeform canonicalize", run,
              [(["canonicalize", inp["canon_file"], "--q", repr(canon_q), "--c",
                 repr(canon_shift), "--format", "csv"],)], check_canonicalize),
        Batch("verify", "qdeform verify all", run,
              [(["verify", "all", "--seed", str(inp["verify_seed"])],)], check_verify),
    ]


ROUNDS = {"scalar": scalar_round, "bulk": bulk_round, "cli": cli_round}
