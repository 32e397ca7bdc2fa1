"""Benchmark of qdeform: one workload, one seed, one run.

    python3 bench/run.py --workload {scalar,bulk,cli} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; qdeform is imported from its ``src/``.
The run first times ``SETUP_PROBES`` fresh interpreters that import qdeform
and build the workload's inputs (``setup_s``), then repeats whole rounds of
the workload's operations until ``--seconds`` have passed, checking every
output (see checks.py).  One client, one process, no threads.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics (spans around every public qdeform
function, per round) with ``--trace 1``.  Lines before it print the same
numbers and a per-operation detail.  Run outputs go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = 5

END_TO_END_UNITS = {
    "setup_s": "s", "eval_s": "s", "tables_s": "s", "canonical_s": "s",
    "verify_s": "s", "op_p50_ms": "ms", "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("scalar", "bulk", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def probe_env():
    return dict(os.environ, PYTHONPATH=str(SRC))


def time_setup(workload, seed, run_dir):
    """Seconds of fresh interpreters importing qdeform and building inputs,
    as (wall, reference) lists; see speed.py."""
    import speed

    calibration = speed.process_calibration(sys.executable, ROOT)
    wall, scaled = [], []
    cal = calibration.measure()
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, str(BENCH_DIR / "inputs.py"), workload,
                        str(seed), str(run_dir)],
                       env=probe_env(), cwd=ROOT, check=True, timeout=120)
        wall.append(time.perf_counter() - start)
        cal_after = calibration.measure()
        scaled.append(wall[-1] * calibration.factor(cal, cal_after))
        cal = cal_after
    return wall, scaled


class Run:
    """Counts, timings and check failures of the rounds of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []      # check failures: the run is not correct
        self.faults = []      # first message of each failing operation label
        self.rounds = []      # per round: group seconds (reference, wall), op median
        self.labels = {}      # label -> [calls, wall seconds, work units]

    def run_round(self, batches):
        from checks import CheckFailed
        from workloads import GROUPS, Failure, call_all, resolve

        state = {}
        groups = dict.fromkeys(GROUPS, 0.0)
        wall = dict.fromkeys(GROUPS, 0.0)
        op_seconds = []
        calibrations = {}
        for batch in batches:
            arg_list = batch.args(state) if callable(batch.args) else batch.args
            # collections triggered inside the timed calls must not traverse
            # the harness's own inputs, outputs and reference arrays
            gc.collect()
            gc.freeze()
            outs, seconds, scaled = call_all(resolve(batch.target), arg_list,
                                             calibrations)
            groups[batch.group] += math.fsum(scaled)
            wall[batch.group] += math.fsum(seconds)
            op_seconds.extend(scaled)
            slot = self.labels.setdefault(batch.label, [0, 0.0, 0])
            slot[0] += len(seconds)
            slot[1] += math.fsum(seconds)
            slot[2] += sum(batch.work(a) for a in arg_list)
            self.attempted += len(outs)
            ok_args, ok_outs = [], []
            for a, o in zip(arg_list, outs):
                if isinstance(o, Failure):
                    self.failed += 1
                    if batch.label not in (f[0] for f in self.faults):
                        self.faults.append((batch.label, repr(o)))
                else:
                    ok_args.append(a)
                    ok_outs.append(o)
            if batch.key:
                state[batch.key] = outs
            try:
                batch.check(ok_args, ok_outs)
            except CheckFailed as err:
                if len(self.errors) < 20:
                    self.errors.append(f"{batch.label}: {err}")
        self.rounds.append({"groups": groups, "wall": wall,
                            "op_p50_s": statistics.median(op_seconds)})


def end_to_end(run, setup_samples, peak_rss_mb):
    med = statistics.median
    metrics = {"setup_s": med(setup_samples)}
    for group in ("eval", "tables", "canonical", "verify"):
        metrics[f"{group}_s"] = med(r["groups"][group] for r in run.rounds)
    metrics["op_p50_ms"] = 1e3 * med(r["op_p50_s"] for r in run.rounds)
    metrics["peak_rss_mb"] = peak_rss_mb
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}


def per_layer(stats, rounds):
    from tracer import layer_metrics

    return {k: {"value": v, "unit": "count" if k.endswith(".calls") else "s"}
            for k, v in layer_metrics(stats, rounds).items()}


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "qdeform" / "__init__.py").is_file():
        sys.stderr.write(f"qdeform sources not found under {SRC}; run from a checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))

    run_dir = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    setup_wall, setup_samples = time_setup(args.workload, args.seed, run_dir)

    import qdeform
    import qdeform.cli  # noqa: F401  (not imported by the package itself)

    if Path(qdeform.__file__).resolve().parent != (SRC / "qdeform").resolve():
        sys.stderr.write(f"imported qdeform from {qdeform.__file__}, not {SRC}\n")
        return 2

    import checks
    import inputs
    import tracer as tracing
    import workloads

    inp = inputs.make_inputs(args.workload, args.seed, run_dir)
    spans = tracing.Tracer() if args.trace else None
    if spans is not None and args.workload != "cli":
        tracing.install(spans)
    runner = workloads.ProcessRunner(ROOT, sys.executable, run_dir,
                                     trace_dir=run_dir if args.trace else None)
    batches = workloads.ROUNDS[args.workload](
        inp, {"out_dir": run_dir, "process_runner": runner})

    run = Run()
    start = time.perf_counter()
    while True:
        run.run_round(batches)
        if time.perf_counter() - start >= args.seconds:
            break
    elapsed = time.perf_counter() - start

    if args.workload == "cli":
        peak_rss_mb = runner.peak_rss_mb
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        stats = spans.stats
        for path in runner.trace_files:
            tracing.merge_stats(stats, json.loads(path.read_text())["stats"])
        if args.workload != "cli":
            spans.dump(run_dir / "spans.json")
        metrics = per_layer(stats, len(run.rounds))
        metrics.update({k: {"value": v, "unit": "s"} for k, v in
                        tracing.import_times(sys.executable, probe_env(), ROOT).items()})
    else:
        metrics = end_to_end(run, setup_samples, peak_rss_mb)

    for label, (calls, seconds, work) in run.labels.items():
        print(f"detail {label:34s} {calls / len(run.rounds):9.0f} calls/round "
              f"{1e6 * seconds / calls:12.2f} us/call {work / seconds:14.1f} work/s")
    for label, message in run.faults:
        print(f"fault  {label}: {message}")
    for message in run.errors:
        print(f"CHECK FAILED {message}")
    for name, m in metrics.items():
        print(f"metric {name:34s} {m['value']:.6g} {m['unit']}")
    print(f"rounds {len(run.rounds)} in {elapsed:.2f} s; setup samples "
          + " ".join(f"{s:.3f}" for s in setup_samples))
    result = {"correct": not run.errors, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    (run_dir / "result.json").write_text(json.dumps({
        **result, "rounds": run.rounds, "setup_samples": setup_samples,
        "setup_wall": setup_wall, "check_margins": checks.WORST,
        "labels": run.labels, "errors": run.errors, "faults": run.faults}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
