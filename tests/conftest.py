"""Shared fixtures."""

import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def src_env():
    """Environment for a ``python -m qdeform`` subprocess: the repository's
    ``src`` first on ``PYTHONPATH``, so the package imports whether or not
    it is installed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@pytest.fixture
def assert_peak_alloc():
    """``assert_peak_alloc(limit, fn, *args)`` calls ``fn(*args)`` under
    ``tracemalloc`` and fails when the peak traced allocation of the call
    reaches ``limit`` bytes.  Deterministic, unlike a wall-clock bound, so
    it can guard against an O(n) buffer coming back."""
    def check(limit, fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit, f"{fn.__name__} peaked at {peak} traced bytes"
        return peak
    return check


@pytest.fixture(scope="session")
def wide_draws():
    """20 000 seeded (q, a, b) triples at both ends of the double range: q
    uniform in [-3, 3] for half of them, and 1 -+ 10**U(-20, 300) for the
    rest; a and b are -+10**U(-300, 300).  (1-q)*a often passes the largest
    double where exp_q(a) is still a double."""
    rng = np.random.default_rng(1)
    q = np.concatenate([rng.uniform(-3.0, 3.0, 10_000), 1.0 - rng.choice(
        [-1.0, 1.0], 10_000) * 10.0 ** rng.uniform(-20.0, 300.0, 10_000)])
    a, b = rng.choice([-1.0, 1.0], (2, 20_000)) * 10.0 ** rng.uniform(-300.0, 300.0, (2, 20_000))
    return list(zip(q.tolist(), a.tolist(), b.tolist()))
