"""Shared fixtures."""

import os
import tracemalloc
from pathlib import Path

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
