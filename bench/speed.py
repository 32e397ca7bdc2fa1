"""Machine-speed calibration.

The speed of a shared machine swings by up to a factor of 1.5 for tens of
seconds at a time (other tenants on the same cores), far more than the
changes the benchmark must resolve.  A calibration that does not touch
qdeform is therefore timed between operations, and each operation's wall
time is scaled by ``ref_s / (mean of the calibrations before and after
it)``: the result is in seconds of a reference machine on which the
calibration takes ``ref_s``.  Two calibrations, one per kind of operation:

* KERNEL, for calls inside the run process: a fixed loop of scalar math
  calls plus a small numpy expression (~4 ms), timed as the median of three
  runs before a batch and after every SEGMENT_S of calls;
* ``process_calibration``, for whole processes (CLI runs, set-up probes):
  a fresh ``python -c "import numpy"``, whose start-up and shared-library
  loading share the noise of a ``qdeform`` process far better than any
  in-process loop does.

``ref_s`` are the calibrations' medians on the 2-vCPU Xeon of the reference
numbers in README.md, so there reference seconds and wall seconds agree.
"""

from __future__ import annotations

import math
import os
import subprocess
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Calibration:
    measure: Callable[[], float]  # seconds the calibration takes now
    ref_s: float
    segment_s: float              # operation seconds between two calibrations

    def factor(self, before: float, after: float) -> float:
        """Scale from wall seconds to reference seconds between two calibrations."""
        return self.ref_s / (0.5 * (before + after))


def _kernel():
    acc = 0.0
    for i in range(1, 6001):
        x = i * 0.002
        acc += math.expm1(-0.3 * math.log(x)) / -0.3
        acc += math.exp(math.log1p(0.2 * x) / 0.2)
    grid = np.linspace(0.1, 5.0, 4000)
    return acc + float(np.sum(np.expm1(0.3 * np.log(grid))))


def _time_kernel(repeats=3):
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        _kernel()
        samples.append(time.perf_counter() - start)
    return sorted(samples)[repeats // 2]


KERNEL = Calibration(_time_kernel, ref_s=0.004, segment_s=0.1)


def process_calibration(python, cwd):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}

    def measure():
        start = time.perf_counter()
        subprocess.run([python, "-c", "import numpy"], env=env, cwd=cwd, check=True,
                       timeout=60)
        return time.perf_counter() - start

    return Calibration(measure, ref_s=0.26, segment_s=0.0)
