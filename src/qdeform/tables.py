"""Result tables shared by the figure generators and the CLI, stored as
curve blocks.

A figure is a few curves over one grid: within a curve ``curve_id`` and
``scale`` are one number, and the rescaled columns are the same arrays in
every curve.  :class:`FigureTable` stores exactly that, one block per
curve, and builds row tuples only when a caller first reads a row.
"""

from __future__ import annotations

import gc
import weakref
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from . import _EXPORTS
from ._array import _check_finite, _finite, _q_exp_array, _q_log_array
from .core import _check_all, _check_positive, _finite_or_overflow, check_index, q_log
from .errors import NonPositiveArgument

__all__ = _EXPORTS["tables"]


def _read_only(values) -> np.ndarray:
    array = np.asarray(values, dtype=float)
    if array.ndim != 1:
        raise ValueError(f"a table column array must be one-dimensional, got {array.ndim} dims")
    array.setflags(write=False)
    return array


class _Rows(Sequence):
    """The row tuples of a list of blocks.  ``len`` reads the block lengths;
    the tuples are built on first item access or iteration, by
    ``cli._row_cells`` unformatted, and kept.  Each distinct array is converted
    once, so rows that share an array share its floats.  The cyclic collector
    is paused while the tuples are built, and the caller's setting restored: a
    tuple of numbers can be in no cycle, yet building 3e5 of them would start
    several hundred collector passes, about half the build's time."""

    def __init__(self, blocks, lengths):
        self._blocks, self._lengths, self._rows = blocks, lengths, None

    def __len__(self) -> int:
        return sum(self._lengths)

    def __getitem__(self, index):
        return self._built()[index]

    def __iter__(self):
        return iter(self._built())

    def _built(self) -> tuple:
        if self._rows is None:
            enabled = gc.isenabled()
            gc.disable()
            try:
                from .cli import _row_cells  # here: loading tables loads no CLI
                # a list first (a growing tuple would be re-tracked by the gc at each
                # resize), and it dies on return: the next pass meets only the rows
                self._rows = tuple(list(_row_cells(self._blocks)))
            finally:
                if enabled:
                    gc.enable()
        return self._rows


@dataclass(frozen=True, eq=False)
class FigureTable:
    """An immutable table of curve blocks: column names, blocks and run
    metadata.

    Each block holds one value per column: a float array, or a number that
    is the column's value in every row of the block.  Blocks may share an
    array.  The table takes its arrays over and marks them read-only; it
    does not copy them.

    - ``column(name)`` is the column over all blocks, read-only;
    - ``rows`` is the sequence of row tuples, built by the CLI writer's block
      pass on first item access or iteration, with the cyclic collector paused
      (tuples of numbers form no cycle), and kept (its ``len`` builds nothing);
    - ``curves()`` groups ``rows`` by the ``curve_id`` number of each block.

    Two tables are equal when their column names, metadata and every
    column are.  ``meta`` always records the parameters the table was
    produced with, including the chosen scale(s), so downstream consumers
    never have to guess the normalization context.
    """

    columns: tuple
    blocks: tuple
    meta: dict = field(default_factory=dict)
    rows: Sequence = field(init=False, repr=False)

    __hash__ = None

    def __post_init__(self):
        blocks = tuple(tuple(v if np.ndim(v) == 0 else _read_only(v) for v in block)
                       for block in self.blocks)
        lengths = []
        for b, block in enumerate(blocks):
            sizes = {v.size for v in block if isinstance(v, np.ndarray)}
            if len(block) != len(self.columns) or len(sizes) != 1:
                raise ValueError(f"block {b} needs one value per column and at least "
                                 f"one array, all of one length")
            lengths.append(sizes.pop())
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "_lengths", tuple(lengths))
        object.__setattr__(self, "rows", _Rows(blocks, self._lengths))
        object.__setattr__(self, "_values", lambda: None)  # see column()

    def __eq__(self, other):
        if not isinstance(other, FigureTable):
            return NotImplemented
        return (self.columns == other.columns and self.meta == other.meta
                and all(np.array_equal(self.column(c), other.column(c))
                        for c in self.columns))

    def column(self, name: str) -> np.ndarray:
        """The named column over all blocks, read-only.  A one-block table
        returns its stored array, without a copy; otherwise each column is a
        row of one array of all columns, written on the first call and held
        weakly (a strong hold would keep a copy of the table for its life)."""
        i = self.columns.index(name)
        if len(self.blocks) == 1 and isinstance(self.blocks[0][i], np.ndarray):
            return self.blocks[0][i]
        if (values := self._values()) is None:
            values = np.empty((len(self.columns), len(self.rows)))
            for block, stop, n in zip(self.blocks, accumulate(self._lengths), self._lengths):
                for j, v in enumerate(block):
                    values[j, stop - n:stop] = v
            values.setflags(write=False)
            object.__setattr__(self, "_values", weakref.ref(values))
        return values[i]

    def curves(self) -> dict:
        """Rows grouped by the ``curve_id`` number of each block,
        insertion-ordered.  Each curve is a slice of ``rows``, so its rows
        are the table's own row tuples."""
        i = self.columns.index("curve_id")
        grouped, start = {}, 0
        for block, n in zip(self.blocks, self._lengths):
            if isinstance(block[i], np.ndarray):
                raise ValueError("curves() needs one curve_id number per block")
            grouped[block[i]] = grouped.get(block[i], ()) + self.rows[start:start + n]
            start += n
        return grouped


def _scaled_family(q: float, scales, grid, power: int, meta: dict) -> FigureTable:
    """Curves y = c * exp_q(-(x / c**((1-q)/power))**power), one per scale c.

    The profile exp_q(-grid**power) is evaluated once, and curve c is
    x_raw = grid * c**((1-q)/power), y_raw = c * profile, so every curve's
    block shares the rescaled columns, the grid and the profile.  The collapse
    is checked in the q-log form qlog_y = log_q(y_raw) = -x_raw**power + log_q(c).
    Empty scales, an empty grid or a non-finite grid point raise
    :class:`ValueError`.
    """
    q = check_index(q)
    grid = np.array(grid, dtype=float)  # a copy: the table marks it read-only
    scales = [_check_positive(f"scales[{ci}]", c) for ci, c in enumerate(scales)]
    if not scales:
        raise ValueError("scales must be non-empty")
    if not grid.size:
        raise ValueError("grid must be non-empty")
    _check_finite("grid", grid)
    x_scales = [_check_positive(f"x scale of scales[{ci}]", _finite_or_overflow(
        "x scale", q, lambda: f"scales[{ci}]={c!r}", lambda: c ** ((1.0 - q) / power)))
        for ci, c in enumerate(scales)]
    with np.errstate(over="ignore"):
        profile = _q_exp_array(q, -_finite(q, f"grid**{power}", grid ** power))
    blocks = []
    for ci, (c, x_scale) in enumerate(zip(scales, x_scales)):
        with np.errstate(over="ignore"):
            x_raw = _finite(q, f"x_raw of scales[{ci}]", grid * x_scale)
            y_raw = _finite(q, f"y_raw of scales[{ci}]", c * profile)
        # the profile, or c times it, may underflow to 0
        _check_all(y_raw > 0.0, lambda i: NonPositiveArgument(
            f"y_raw of scales[{ci}] at grid[{i}]={float(grid[i])!r}", float(y_raw[i])))
        blocks.append((ci, c, x_raw, y_raw, grid, profile, _q_log_array(q, y_raw)))
    meta = {"q": q, **meta, "scales": scales, "grid_points": int(grid.size),
            "qlog_intercepts": [q_log(q, c) for c in scales]}
    return FigureTable(("curve_id", "scale", "x_raw", "y_raw", "x_rescaled",
                        "y_rescaled", "qlog_y"), tuple(blocks), meta)
