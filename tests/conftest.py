"""Shared fixtures."""

import os
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
