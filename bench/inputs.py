"""Seeded input generation for the three workloads.

Every input is drawn inside the domain by construction (intervals are
intersected with the exp_q bracket before sampling), so no operation of a
workload can fail on a seed-dependent draw.  The same (workload, seed) pair
always yields the same inputs.

Run as a script, this is the set-up probe: a fresh interpreter that imports
qdeform from ``src/`` and builds one workload's inputs, then exits.  Its wall
time is the benchmark's ``setup_s``.

    python3 bench/inputs.py <workload> <seed> <directory for input files>
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

WORKLOADS = ("scalar", "bulk", "cli")
MARGIN = 0.05  # minimum exp_q bracket 1 + (1-q)*x of every drawn argument

SCALAR_CALLS_PER_FN = 5000
SCALAR_MODELS_PER_REGIME = 50
SCALAR_MLP_SETS = 150
SCALAR_DISTRIBUTIONS = 900
SCALAR_TABLE_SETS = 8
BULK_GRID = 100_000
BULK_SAMPLES = 20_000
BULK_FACTORIAL_N = 1_000_000
BULK_ODE_STEPS = 50_000
BULK_SHIFTS = 100_000
BULK_FACTORS = 10_000
BULK_POINTS = 20_000
BULK_CANON_FILE_POINTS = 10_000
CLI_CANON_FILE_POINTS = 1_000
# The verify suites run at the CLI's default seed, not the workload seed:
# run_all fails identities/fold_vs_qlog_sum on some seeds (28, 51, 71 of
# 0-119), and an operation that fails on some seeds only cannot be measured.
VERIFY_SEED = 0


def rng_for(workload: str, seed: int):
    return np.random.default_rng([int(seed), WORKLOADS.index(workload)])


def draw_index(rng, n, classical_share=0.1, lo=0.2, hi=2.8):
    q = rng.uniform(lo, hi, size=n)
    q[rng.uniform(size=n) < classical_share] = 1.0
    return q


def domain_interval(q, lo, hi, margin=MARGIN):
    """[lo, hi] intersected with {x : 1 + (1-q)*x > margin}, per element."""
    q = np.asarray(q, dtype=float)
    omq = 1.0 - q
    with np.errstate(divide="ignore"):
        edge = (margin - 1.0) / omq  # bracket == margin here
    lo = np.where(omq > 0, np.maximum(lo, edge), lo)
    hi = np.where(omq < 0, np.minimum(hi, edge), hi)
    return lo, hi


def draw_exp_arg(rng, q, lo=-3.0, hi=3.0, margin=MARGIN):
    a, b = domain_interval(q, lo, hi, margin)
    return a + (b - a) * rng.uniform(size=np.shape(q))


def exp_q(q, x):
    """Plain double exp_q for building inputs (not a checked value)."""
    q = np.asarray(q, dtype=float)
    x = np.asarray(x, dtype=float)
    omq = np.where(q == 1.0, 1.0, 1.0 - q)
    return np.where(q == 1.0, np.exp(x), (1.0 + omq * x) ** (1.0 / omq))


def log_uniform(rng, lo, hi, size):
    return np.exp(rng.uniform(np.log(lo), np.log(hi), size=size))


def bounded_walk_steps(rng, n, half_width=0.5):
    """Steps whose partial sums stay in [-half_width, half_width]."""
    levels = np.concatenate(([0.0], rng.uniform(-half_width, half_width, size=n)))
    return np.diff(levels)


def _pair_args(rng, q, sign):
    """x = exp_q(a), y = exp_q(b) with a, b and a + sign*b all in-domain."""
    a = draw_exp_arg(rng, q, -2.0, 2.0)
    b_lo, b_hi = domain_interval(q, -2.0, 2.0)
    # a + sign*b must also keep its bracket above the margin
    s_lo, s_hi = domain_interval(q, -np.inf, np.inf)
    if sign > 0:
        b_lo, b_hi = np.maximum(b_lo, s_lo - a), np.minimum(b_hi, s_hi - a)
    else:
        b_lo, b_hi = np.maximum(b_lo, a - s_hi), np.minimum(b_hi, a - s_lo)
    b = b_lo + (b_hi - b_lo) * rng.uniform(size=q.shape)
    return exp_q(q, a), exp_q(q, b)


def _eval_argvs(rng):
    """One seeded in-domain argument list per ``qdeform eval`` function."""
    q = draw_index(rng, 5, classical_share=0.0)
    x = draw_exp_arg(rng, q[1:2])[0]
    px, py = _pair_args(rng, q[2:3], +1)
    rx, ry = _pair_args(rng, q[3:4], -1)
    p = rng.uniform(0.1, 1.0, size=5)
    p = p / p.sum()
    return [
        ("qlog", {"q": q[0], "y": float(log_uniform(rng, 0.05, 20.0, 1)[0])}),
        ("qexp", {"q": q[1], "x": float(x)}),
        ("qprod", {"q": q[2], "x": float(px[0]), "y": float(py[0])}),
        ("qratio", {"q": q[3], "x": float(rx[0]), "y": float(ry[0])}),
        ("tsallis", {"q": q[4], "p": [float(v) for v in p]}),
    ]


def eval_argv(fn, params):
    argv = ["eval", fn, "--q", repr(float(params["q"]))]
    for flag in ("x", "y"):
        if flag in params:
            argv += [f"--{flag}", repr(float(params[flag]))]
    if "p" in params:
        argv += ["--p", ",".join(repr(v) for v in params["p"])]
    return argv


def _model_params(rng, n_per_regime):
    """(q, ode_coeff, log_offset) over q < 1, q = 1 and 1 < q < 3."""
    q = np.concatenate((rng.uniform(0.1, 0.95, n_per_regime),
                        np.ones(n_per_regime),
                        rng.uniform(1.05, 2.8, n_per_regime)))
    coeff = -rng.uniform(0.5, 4.0, size=q.size)
    offset = rng.uniform(-0.4, 0.4, size=q.size)
    return [(float(a), float(b), float(c)) for a, b, c in zip(q, coeff, offset)]


def _mlp_samples(rng, q, beta, size):
    if q < 1.0:
        half_width = 1.0 / np.sqrt(beta * (1.0 - q))
        return rng.uniform(-0.4 * half_width, 0.4 * half_width, size=size)
    return rng.normal(0.0, 1.0 / np.sqrt(beta), size=size)


def _canonical_case(rng, size, regime):
    """(q, xs, shift, c1): every exp_q argument -x + c, c1 and c - c1 keeps its
    bracket above 0.2 for q in [0.3, 0.9] or [1.2, 1.8]."""
    q = {"low": rng.uniform(0.3, 0.9), "one": 1.0,
         "high": rng.uniform(1.2, 1.8)}[regime]
    xs = rng.uniform(-0.5, 1.0, size=size)
    shift = rng.uniform(0.0, 0.5)
    c1 = rng.uniform(-0.5, 0.5)
    return float(q), xs, float(shift), float(c1)


def _scalar(rng):
    n = SCALAR_CALLS_PER_FN
    prim = {}
    q = draw_index(rng, n)
    prim["core.q_log"] = list(zip(q.tolist(), log_uniform(rng, 0.05, 20.0, n).tolist()))
    q = draw_index(rng, n)
    prim["core.q_exp"] = list(zip(q.tolist(), draw_exp_arg(rng, q).tolist()))
    q = draw_index(rng, n)
    x, y = _pair_args(rng, q, +1)
    prim["algebra.q_product"] = list(zip(q.tolist(), x.tolist(), y.tolist()))
    q = draw_index(rng, n)
    x, y = _pair_args(rng, q, -1)
    prim["algebra.q_ratio"] = list(zip(q.tolist(), x.tolist(), y.tolist()))
    q = draw_index(rng, n)
    x = log_uniform(rng, 0.1, 10.0, n)
    log_r = rng.uniform(np.log(1.05), np.log(10.0), size=n) * rng.choice([-1.0, 1.0], size=n)
    prim["core.q_log_of_ratio"] = list(zip(q.tolist(), (x * np.exp(log_r)).tolist(),
                                           x.tolist()))
    q = draw_index(rng, n)
    prim["dynamics.shift_expansion"] = list(zip(q.tolist(),
                                                draw_exp_arg(rng, q, -2.0, 2.0).tolist()))
    q = draw_index(rng, n)
    scale = log_uniform(rng, 0.5, 20.0, n)
    direction = rng.choice([-1.0, 1.0], size=n)
    u = draw_exp_arg(rng, q)
    prim["dynamics.analytic_solution"] = list(zip(
        q.tolist(), scale.tolist(), direction.tolist(),
        (direction * u * scale ** (1.0 - q)).tolist()))

    models = _model_params(rng, SCALAR_MODELS_PER_REGIME)
    mlp = []
    for i in range(SCALAR_MLP_SETS):
        m = i % len(models)
        q_m, coeff, offset = models[m]
        beta = -coeff / (2.0 * (1.0 + (1.0 - q_m) * offset))
        mlp.append((m, _mlp_samples(rng, q_m, beta, 10).tolist()))
    regimes = ("low", "one", "high")
    canonical = [_canonical_case(rng, 10, regimes[i % 3])
                 for i in range(SCALAR_DISTRIBUTIONS)]
    grid_points = 501
    return {
        "primitives": prim,
        "models": models,
        "mlp": mlp,
        "eval_argvs": _eval_argvs(rng),
        "tables": [_table_params(rng, grid_points) for _ in range(SCALAR_TABLE_SETS)],
        "canonical": canonical,
        "verify_seed": VERIFY_SEED,
    }


def _table_params(rng, points):
    return {
        "fig2": (sorted(log_uniform(rng, 0.5, 50.0, 3).tolist()),
                 float(rng.uniform(1.1, 1.6)), np.linspace(0.0, 5.0, points)),
        "fig3": (sorted(log_uniform(rng, 0.5, 200.0, 3).tolist()),
                 float(rng.uniform(1.3, 2.0)), np.linspace(-5.0, 5.0, points)),
        "frequency": (float(rng.uniform(1.3, 2.0)), float(rng.uniform(0.5, 2.0)),
                      float(rng.uniform(-0.5, 0.5)), np.linspace(-3.0, 3.0, points)),
    }


def _bulk(rng, data_dir):
    models = [(float(rng.uniform(0.3, 0.9)), float(-rng.uniform(1.0, 3.0)), 0.0),
              (1.0, float(-rng.uniform(1.0, 3.0)), 0.0),
              (float(rng.uniform(1.2, 2.5)), float(-rng.uniform(1.0, 3.0)), 0.0)]
    likelihood = []
    for q_m, coeff, _ in models:
        samples = _mlp_samples(rng, q_m, -coeff / 2.0, BULK_SAMPLES)
        likelihood.append((float(np.mean(samples)), samples.tolist()))
    counts = rng.multinomial(BULK_FACTORIAL_N - 3, [0.2, 0.3, 0.5]) + 1
    step = 5.0 / BULK_ODE_STEPS
    canonical = [_canonical_case(rng, BULK_POINTS, r) for r in ("low", "one", "high")]
    canon_q, canon_xs, canon_shift, _ = _canonical_case(rng, BULK_CANON_FILE_POINTS, "high")
    drift_q = float(rng.uniform(0.3, 1.8))
    fold_q = float(rng.uniform(0.3, 1.8))
    return {
        "tables": [_table_params(rng, BULK_GRID)],
        "models": models,
        "likelihood": likelihood,
        "factorial": [(q, BULK_FACTORIAL_N)
                      for q in (0.0, 1.0, 2.0, float(rng.uniform(0.3, 0.9)),
                                float(rng.uniform(1.1, 1.9)))],
        "multinomial": [(q, [int(c) for c in counts]) for q in (0.0, 1.0)],
        "ode": [(float(rng.uniform(1.1, 1.6)), 0.0, float(rng.uniform(0.5, 2.0)), -1.0,
                 5.0, step),
                (float(rng.uniform(0.5, 0.9)), 0.0, float(rng.uniform(0.5, 2.0)), 1.0,
                 5.0, step)],
        "drift": (drift_q, bounded_walk_steps(rng, BULK_SHIFTS).tolist()),
        "fold": (fold_q, exp_q(fold_q, bounded_walk_steps(rng, BULK_FACTORS)).tolist()),
        "canonical": canonical,
        "canon_file": _write_values(data_dir, "bulk-canon.csv", canon_xs),
        "canon_file_params": (canon_q, canon_shift),
        "verify_seed": VERIFY_SEED,
    }


def _cli(rng, data_dir):
    q, xs, shift, _ = _canonical_case(rng, CLI_CANON_FILE_POINTS, "high")
    return {
        "eval_argvs": _eval_argvs(rng),
        "canon_file": _write_values(data_dir, "cli-canon.csv", xs),
        "canon_file_params": (q, shift),
        "verify_seed": VERIFY_SEED,
    }


def _write_values(data_dir, name, xs):
    path = Path(data_dir) / name
    path.write_text("x\n" + "".join(f"{v!r}\n" for v in xs.tolist()), encoding="utf-8")
    return str(path)


def make_inputs(workload: str, seed: int, data_dir) -> dict:
    rng = rng_for(workload, seed)
    if workload == "scalar":
        return _scalar(rng)
    if workload == "bulk":
        return _bulk(rng, data_dir)
    if workload == "cli":
        return _cli(rng, data_dir)
    raise ValueError(f"unknown workload {workload!r}")


if __name__ == "__main__":
    # set-up probe: PYTHONPATH points at the checkout's src/
    import qdeform  # noqa: F401  (the import is what is being timed)

    workload, seed, data_dir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    make_inputs(workload, seed, data_dir)
