"""Spans around every public function of qdeform, installed from outside.

``install(tracer)`` replaces each function a module exports (its
``__all__``, or for ``cli`` its public functions) and each public method and
constructor of an exported class with a wrapper that records a span.  The
wrapper is bound at every module-level name that held the original,
including the names other qdeform modules imported and dict tables such as
the verify suite registry, so calls between modules are traced too.

A span has an id, a parent id, a name, a start and an end.  Self time is a
span's duration minus the time covered by its direct children.  Totals per
span name are accumulated as spans close; the first ``max_spans`` spans are
kept in memory and written out at the end.

Run as a script, it traces one ``qdeform`` CLI process:

    python3 bench/tracer.py <stats.json> -- <qdeform arguments>
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import re
import subprocess
import sys
import time

LAYERS = ("core", "algebra", "dynamics", "combinatorics", "qgaussian",
          "canonical", "tables", "verify", "cli")


class Tracer:
    def __init__(self, max_spans=100_000):
        self.max_spans = max_spans
        self.spans = []      # (id, parent, name, start, end)
        self.dropped = 0
        self.stats = {}      # name -> [calls, total_s, self_s]
        self._stack = []     # [id, child_s] per open span
        self._next_id = 0

    def wrap(self, name, fn):
        stack = self._stack
        spans = self.spans
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[1]
                if len(spans) < self.max_spans:
                    spans.append((span_id, parent, name, start, end))
                else:
                    self.dropped += 1

        return traced

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"stats": self.stats, "dropped": self.dropped,
                       "spans": self.spans}, handle)


def _exported(module):
    names = getattr(module, "__all__", None)
    if names is None:  # cli: every public function defined there
        names = [n for n, v in vars(module).items()
                 if not n.startswith("_") and inspect.isfunction(v)
                 and v.__module__ == module.__name__]
    return [(n, getattr(module, n)) for n in names]


def _wrap_class(tracer, layer, cls):
    for attr, value in list(vars(cls).items()):
        if attr != "__init__" and attr.startswith("_"):
            continue
        name = f"{layer}.{cls.__name__}" + ("" if attr == "__init__" else f".{attr}")
        if isinstance(value, classmethod):
            setattr(cls, attr, classmethod(tracer.wrap(name, value.__func__)))
        elif isinstance(value, staticmethod):
            setattr(cls, attr, staticmethod(tracer.wrap(name, value.__func__)))
        elif inspect.isfunction(value):
            setattr(cls, attr, tracer.wrap(name, value))


def install(tracer):
    """Wrap every exported function of the nine layers; returns the modules."""
    package = importlib.import_module("qdeform")
    modules = {layer: importlib.import_module(f"qdeform.{layer}") for layer in LAYERS}
    replaced = {}  # id(original) -> wrapper
    for layer, module in modules.items():
        for name, obj in _exported(module):
            if inspect.isclass(obj):
                if obj.__module__ == module.__name__:
                    _wrap_class(tracer, layer, obj)
            elif callable(obj) and id(obj) not in replaced:
                replaced[id(obj)] = tracer.wrap(f"{layer}.{name}", obj)
    # the verify suites are private functions reached through a registry
    suites = modules["verify"]._SUITES
    for suite, fn in list(suites.items()):
        suites[suite] = tracer.wrap(f"verify.{suite}", fn)
    for module in [package, *modules.values()]:
        for name, value in list(vars(module).items()):
            if id(value) in replaced:
                setattr(module, name, replaced[id(value)])
    return modules


def layer_metrics(stats, rounds):
    """Per-round layer and per-function numbers from accumulated span stats."""
    per_layer = {f"{layer}.{kind}": 0.0 for layer in LAYERS
                 for kind in ("calls", "self_s")}
    for name, (calls, total, self_s) in stats.items():
        layer = name.split(".", 1)[0]
        per_layer[f"{layer}.calls"] += calls
        per_layer[f"{layer}.self_s"] += self_s

    def total_of(name):
        return stats.get(name, [0, 0.0, 0.0])[1]

    out = {k: v / rounds for k, v in per_layer.items()}
    out["qgaussian.normalization.calls"] = stats.get(
        "qgaussian.normalization", [0])[0] / rounds
    for name in ("qgaussian.normalization", "qgaussian.q_log_likelihood",
                 "dynamics.fig2_data", "qgaussian.fig3_data",
                 "qgaussian.frequency_rescale", "tables.FigureTable.column",
                 "combinatorics.q_log_factorial", "canonical.build_distribution",
                 "dynamics.integrate_ode", "verify.identities", "verify.dynamics",
                 "verify.stirling", "verify.mlp", "verify.canonical"):
        key = name.replace("FigureTable.", "") + "_s"
        out[key] = total_of(name) / rounds
    return out


def merge_stats(into, stats):
    for name, (calls, total, self_s) in stats.items():
        slot = into.setdefault(name, [0, 0.0, 0.0])
        slot[0] += calls
        slot[1] += total
        slot[2] += self_s


_IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)")


def import_times(python, env, cwd, repeats=3):
    """Median seconds spent importing qdeform (cumulative), and scipy and
    numpy (sum of their modules' self times), from ``-X importtime``."""
    samples = {"qdeform": [], "scipy": [], "numpy": []}
    for _ in range(repeats):
        proc = subprocess.run([python, "-X", "importtime", "-c", "import qdeform"],
                              env=env, cwd=cwd, capture_output=True, text=True,
                              timeout=120, check=True)
        sums = {"qdeform": 0.0, "scipy": 0.0, "numpy": 0.0}
        for line in proc.stderr.splitlines():
            m = _IMPORT_LINE.match(line)
            if not m:
                continue
            self_us, cumulative_us, module = int(m[1]), int(m[2]), m[4]
            top = module.split(".", 1)[0]
            if module == "qdeform":
                sums["qdeform"] = cumulative_us * 1e-6
            elif top in ("scipy", "numpy"):
                sums[top] += self_us * 1e-6
        for k, v in sums.items():
            samples[k].append(v)
    return {f"import.{k}_s": sorted(v)[len(v) // 2] for k, v in samples.items()}


def _trace_cli(stats_path, argv):
    tracer = Tracer()
    modules = install(tracer)
    try:
        code = modules["cli"].main(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(stats_path)
    return code


if __name__ == "__main__":
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        sys.exit("usage: tracer.py <stats.json> -- <qdeform arguments>")
    sys.exit(_trace_cli(sys.argv[1], sys.argv[3:]))
