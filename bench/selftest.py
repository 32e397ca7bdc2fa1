"""Self-test of the benchmark's output checks.

For every check it computes genuine program outputs on small seeded
inputs, shows that the check accepts them, then changes one value and shows
that the check rejects it.  Exits 1 if any check accepts a perturbed value
or rejects a genuine one.

    python3 bench/selftest.py
"""

from __future__ import annotations

import copy
import dataclasses
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import numpy as np  # noqa: E402

import qdeform  # noqa: E402
import qdeform.cli  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import workloads as wl  # noqa: E402
from checks import CheckFailed  # noqa: E402

REL = 1e-8  # relative size of the perturbations: far above every tolerance's noise


def bump(seq, i=1, factor=1.0 + REL):
    """A copy of a sequence with element i multiplied by factor."""
    out = list(seq)
    out[i] = out[i] * factor
    return type(seq)(out) if isinstance(seq, tuple) else out


def _frozen_copy(obj, changes):
    new = copy.copy(obj)
    for k, v in changes.items():
        object.__setattr__(new, k, v)
    return new


class SelfTest:
    def __init__(self):
        self.results = []

    def case(self, name, check, args, outs, bad_outs, bad_args=None):
        try:
            check(args, outs)
        except CheckFailed as err:
            self.results.append((name, False, f"rejected genuine output: {err}"))
            return
        try:
            check(bad_args if bad_args is not None else args, bad_outs)
        except CheckFailed as err:
            self.results.append((name, True, str(err)[:110]))
        else:
            self.results.append((name, False, "accepted a perturbed value"))


def run(fn, arg_list):
    outs, _, _ = wl.call_all(wl.resolve(fn), arg_list)
    bad = [o for o in outs if isinstance(o, wl.Failure)]
    if bad:
        raise RuntimeError(f"{fn} failed on self-test inputs: {bad[0]}")
    return outs


def main():
    t = SelfTest()
    tmp = BENCH_DIR / "out" / "selftest"
    tmp.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(7)
    scalar = inputs._scalar(rng)

    # primitives: one output off by 1e-8 relative
    for label, check in wl.PRIMITIVE_CHECKS.items():
        args = scalar["primitives"][label][:200]
        outs = run(label, args)
        if label == "dynamics.shift_expansion":
            bad = list(outs)
            bad[5] = bump(bad[5], 0)
        else:
            bad = bump(outs, 5)
        t.case(label, check, args, outs, bad)

    # q-Gaussian models: one normalization off
    models = run("qgaussian.QGaussianModel", scalar["models"])
    bad = list(models)
    bad[60] = _frozen_copy(models[60], {"norm": models[60].norm * (1 + REL)})
    t.case("QGaussianModel.norm", wl.check_models, scalar["models"], models, bad)

    # mlp stationarity: a gradient above 1e-6 * |curvature| * scale
    mlp_args = [(models[m], s) for m, s in scalar["mlp"][:20]]
    mlp = run("qgaussian.mlp_stationarity", mlp_args)
    g, c = mlp[3]
    spread = max(1.0, float(np.ptp(mlp_args[3][1])))
    bad = list(mlp)
    bad[3] = (abs(c) * spread * 2e-6 + abs(g), c)
    t.case("mlp_stationarity gradient", wl.check_mlp, mlp_args, mlp, bad)
    bad = list(mlp)
    bad[4] = (mlp[4][0], -mlp[4][1])
    t.case("mlp_stationarity curvature sign", wl.check_mlp, mlp_args, mlp, bad)

    # in-process CLI eval: one printed value changed
    argvs = [(inputs.eval_argv(fn, p),) for fn, p in scalar["eval_argvs"]]
    outs = run(wl.cli_inprocess, argvs)
    bad = list(outs)
    bad[2] = (0, repr(float(outs[2][1]) * (1 + REL)) + "\n")
    t.case("cli.main eval output", wl.check_cli_eval_inprocess, argvs, outs, bad)
    bad = list(outs)
    bad[0] = (1, outs[0][1])
    t.case("cli.main eval exit code", wl.check_cli_eval_inprocess, argvs, outs, bad)

    # tables on small grids: columns, coincidence, q-log shape, curves
    params = inputs._table_params(rng, 41)
    state = {}
    for batch in wl._table_set(params, "t_"):
        arg_list = batch.args(state) if callable(batch.args) else batch.args
        outs = run(batch.target, arg_list)
        if batch.key:
            state[batch.key] = outs
        if batch.label.endswith("column"):
            i = 3  # y_raw / f_rescaled
            bad = list(outs)
            bad[i] = bump(outs[i], 20)
            t.case(f"{batch.label} {arg_list[i][1]}", batch.check, arg_list, outs, bad)
        elif batch.label.endswith("curves"):
            grouped = dict(outs[0])
            grouped[1] = list(grouped[1])
            grouped[1][0], grouped[1][1] = grouped[1][1], grouped[1][0]
            t.case(batch.label, batch.check, arg_list, outs, [grouped])
        else:
            table = outs[0]
            bad_table = _frozen_copy(table, {"rows": table.rows[:-1]})
            t.case(f"{batch.label} rows", batch.check, arg_list, outs, [bad_table])

    scales, q, grid = params["fig2"]
    fig2 = qdeform.fig2_data(scales, q, grid)
    cols = {c: np.asarray([r[i] for r in fig2.rows]) for i, c in enumerate(fig2.columns)}

    def coincide(args, outs):
        checks.curves_coincide("fig2 rescaled", cols["curve_id"], outs[0], len(scales))

    t.case("property: rescaled curves coincide", coincide, None, [cols["y_rescaled"]],
           [bump(cols["y_rescaled"], len(grid) + 7)])

    def affine(args, outs):
        checks.qlog_polynomial("fig2 qlog_y", q, cols["x_raw"], cols["scale"], outs[0], 1)

    t.case("property: fig2 qlog_y affine", affine, None, [cols["qlog_y"]],
           [cols["qlog_y"] + np.where(np.arange(cols["qlog_y"].size) == 9, 1e-7, 0.0)])
    scales3, q3, grid3 = params["fig3"]
    fig3 = qdeform.fig3_data(scales3, q3, grid3)
    cols3 = {c: np.asarray([r[i] for r in fig3.rows]) for i, c in enumerate(fig3.columns)}

    def parabola(args, outs):
        checks.qlog_polynomial("fig3 qlog_y", q3, cols3["x_raw"], cols3["scale"], outs[0], 2)

    t.case("property: fig3 qlog_y quadratic", parabola, None, [cols3["qlog_y"]],
           [cols3["qlog_y"] + np.where(np.arange(cols3["qlog_y"].size) == 9, 1e-7, 0.0)])

    # distributions, canonical forms, splits
    cases = scalar["canonical"][:30]
    canon = wl._canonical_batches(cases)
    state = {}
    for batch in canon:
        arg_list = batch.args(state) if callable(batch.args) else batch.args
        outs = run(batch.target, arg_list)
        if batch.key:
            state[batch.key] = outs
        if batch.label.endswith("build_distribution"):
            bad = list(outs)
            bad[4] = _frozen_copy(outs[4], {"probabilities": bump(outs[4].probabilities, 2)})
        elif batch.label.endswith("canonical_form"):
            bad = list(outs)
            bad[4] = _frozen_copy(outs[4], {"slope": outs[4].slope * (1 + REL)})
        else:
            bad = list(outs)
            bad[4] = (bump(outs[4][0], 2), outs[4][1])
        t.case(batch.label, batch.check, arg_list, outs, bad)

    q_d, xs_d, shift_d, _ = cases[2]
    dist = qdeform.build_distribution(q_d, xs_d, shift_d)
    form = qdeform.canonical_form(dist)

    def props(args, outs):
        checks.distribution_properties("distribution", q_d, xs_d, outs[0], form.slope,
                                       form.intercept)

    p = np.asarray(dist.probabilities)
    t.case("property: probabilities sum to 1", props, None, [p], [p * (1 + 1e-10)])
    moved = bump(p, 3, 1 + 1e-7)
    moved[4] -= moved[3] - p[3]  # the sum stays 1; only the affine form breaks
    t.case("property: affine q-log form", props, None, [p], [moved])

    # large-input functions on small sizes
    bulk_models = run("qgaussian.QGaussianModel", [(0.6, -2.0, 0.0), (1.0, -2.0, 0.0),
                                                  (1.7, -2.0, 0.0)])
    lik_args = [(m, 0.01, inputs._mlp_samples(rng, m.q, m.beta, 500).tolist())
                for m in bulk_models]
    lik = run("qgaussian.q_log_likelihood", lik_args)
    t.case("q_log_likelihood", wl.check_likelihood, lik_args, lik, bump(lik, 1))

    fact_args = [(0.0, 5000), (1.0, 5000), (2.0, 5000), (0.4, 5000), (1.6, 5000)]
    fact = run("combinatorics.q_log_factorial", fact_args)
    t.case("q_log_factorial", wl.check_factorial, fact_args, fact, bump(fact, 3))
    multi_args = [(0.0, [1500, 2500, 3000]), (1.0, [1500, 2500, 3000])]
    multi = run("combinatorics.q_log_multinomial", multi_args)
    t.case("q_log_multinomial", wl.check_multinomial, multi_args, multi,
           bump(multi, 1, 1 + 1e-6))

    ode_args = [(1.3, 0.0, 1.2, -1.0, 1.0, 1e-3), (0.7, 0.0, 0.8, 1.0, 1.0, 1e-3)]
    ode = run("dynamics.integrate_ode", ode_args)
    bad = list(ode)
    bad[1] = _frozen_copy(ode[1], {"ys": bump(ode[1].ys, 500, 1 + 1e-6)})
    t.case("integrate_ode", wl.check_ode, ode_args, ode, bad)

    drift_args = [(1.4, inputs.bounded_walk_steps(rng, 2000).tolist())]
    drift = run("algebra.scale_drift_expand", drift_args)
    bad = [_frozen_copy(drift[0], {"observed": bump(drift[0].observed, 77)})]
    t.case("scale_drift_expand", wl.check_drift, drift_args, drift, bad)

    fold_args = [(0.7, inputs.exp_q(0.7, inputs.bounded_walk_steps(rng, 500)).tolist())]
    fold = run("algebra.q_product_fold", fold_args)
    t.case("q_product_fold", wl.check_fold, fold_args, fold, bump(fold, 0))

    report = run("verify.run_all", [(7,)])
    cases_ = list(report[0].cases)
    cases_[3] = dataclasses.replace(cases_[3], passed=False)
    t.case("run_all case failed", wl.check_run_all, [(7,)], report,
           [dataclasses.replace(report[0], cases=tuple(cases_))])
    cases_ = list(report[0].cases)
    cases_[5] = dataclasses.replace(cases_[5], max_rel_err=cases_[5].tolerance)
    t.case("run_all error at tolerance", wl.check_run_all, [(7,)], report,
           [dataclasses.replace(report[0], cases=tuple(cases_))])

    # CLI outputs, parsed from in-process runs of the same commands
    xs = rng.uniform(-0.5, 1.0, size=40)
    data = tmp / "canon.csv"
    data.write_text("x\n" + "".join(f"{v!r}\n" for v in xs.tolist()))
    argv = ["canonicalize", str(data), "--q", "1.5", "--c", "0.25", "--format", "csv"]
    _, text = wl.cli_inprocess(argv)

    def canon_check(args, outs):
        checks.canonicalize_csv("canonicalize", outs[0], xs, 1.5, 0.25)

    lines = text.splitlines()
    cells = lines[5].split(",")
    bad_p = ",".join(cells[:2] + [repr(float(cells[2]) * (1 + REL))] + cells[3:])
    t.case("canonicalize csv p", canon_check, None, [text],
           ["\n".join(lines[:5] + [bad_p] + lines[6:]) + "\n"])
    bad_cell = ",".join(["np.float64(0.5)"] + cells[1:])
    t.case("canonicalize csv cell parses", canon_check, None, [text],
           ["\n".join(lines[:5] + [bad_cell] + lines[6:]) + "\n"])

    scales_d, q_f, grid_d = wl.FIG_DEFAULTS["fig2"]
    _, fig_text = wl.cli_inprocess(["fig", "fig2", "--format", "json"])

    def fig_check(args, outs):
        checks.fig_json("fig fig2", "fig2", outs[0], scales_d, q_f, grid_d)

    payload = json.loads(fig_text)
    payload["rows"][600][3] *= 1 + REL
    t.case("fig json value", fig_check, None, [fig_text], [json.dumps(payload)])
    payload = json.loads(fig_text)
    payload["rows"][10][2] = "np.float64(0.1)"
    t.case("fig json cell parses", fig_check, None, [fig_text], [json.dumps(payload)])

    _, verify_text = wl.cli_inprocess(["verify", "canonical", "--seed", "7"])

    def verify_check(args, outs):
        checks.verify_json("verify", outs[0])

    payload = json.loads(verify_text)
    payload["cases"][1]["pass"] = False
    t.case("verify json case", verify_check, None, [verify_text], [json.dumps(payload)])

    failures = [r for r in t.results if not r[1]]
    for name, ok, message in t.results:
        print(f"{'ok  ' if ok else 'FAIL'} {name:42s} {message}")
    print(f"{len(t.results) - len(failures)} of {len(t.results)} checks reject "
          f"their perturbed value")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
