"""Row-store result tables shared by the figure generators and the CLI."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from . import _EXPORTS
from ._array import _finite, _q_exp_array, _q_log_array
from .core import _check_all, _check_positive, check_index, q_log
from .errors import NonPositiveArgument, RangeOverflow

__all__ = _EXPORTS["tables"]


@dataclass(frozen=True)
class FigureTable:
    """An immutable row store: column names, row tuples and run metadata.

    ``meta`` always records the parameters the table was produced with,
    including the chosen scale(s), so downstream consumers never have to
    guess the normalization context.
    """

    columns: tuple
    rows: tuple
    meta: dict = field(default_factory=dict)

    def column(self, name: str) -> np.ndarray:
        i = self.columns.index(name)
        return np.asarray([row[i] for row in self.rows], dtype=float)

    def curves(self) -> dict:
        """Rows grouped by the ``curve_id`` column, insertion-ordered."""
        i = self.columns.index("curve_id")
        grouped: dict = {}
        for row in self.rows:
            grouped.setdefault(row[i], []).append(row)
        return grouped


def _scaled_family(q: float, scales, grid, power: int, meta: dict) -> FigureTable:
    """Curves y = c * exp_q(-(x / c**((1-q)/power))**power), one per scale c.

    The profile exp_q(-grid**power) is evaluated once, and curve c is
    x_raw = grid * c**((1-q)/power), y_raw = c * profile, so every curve's
    rows share the rescaled columns, the grid and the profile.  The collapse
    is checked in the q-log form qlog_y = log_q(y_raw) = -x_raw**power + log_q(c).
    Empty scales or an empty grid raise :class:`ValueError`.
    """
    q = check_index(q)
    grid = np.asarray(grid, dtype=float)
    scales = [_check_positive(f"scales[{ci}]", c) for ci, c in enumerate(scales)]
    if not scales:
        raise ValueError("scales must be non-empty")
    if not grid.size:
        raise ValueError("grid must be non-empty")
    x_scales = []
    for ci, c in enumerate(scales):
        try:
            x_scale = c ** ((1.0 - q) / power)
        except OverflowError:
            raise RangeOverflow("x scale", q, f"scales[{ci}]={c!r}") from None
        x_scales.append(_check_positive(f"x scale of scales[{ci}]", x_scale))
    with np.errstate(over="ignore"):
        profile = _q_exp_array(q, -_finite(q, f"grid**{power}", grid ** power))
    x_rescaled, y_rescaled = grid.tolist(), profile.tolist()
    rows = []
    for ci, (c, x_scale) in enumerate(zip(scales, x_scales)):
        with np.errstate(over="ignore"):
            x_raw = _finite(q, f"x_raw of scales[{ci}]", grid * x_scale)
            y_raw = _finite(q, f"y_raw of scales[{ci}]", c * profile)
        # the profile, or c times it, may underflow to 0
        _check_all(y_raw > 0.0, lambda i: NonPositiveArgument(
            f"y_raw of scales[{ci}] at grid[{i}]={float(grid[i])!r}", float(y_raw[i])))
        rows += zip(repeat(ci), repeat(c), x_raw.tolist(), y_raw.tolist(),
                    x_rescaled, y_rescaled, _q_log_array(q, y_raw).tolist())
    meta = {"q": q, **meta, "scales": scales, "grid_points": int(grid.size),
            "qlog_intercepts": [q_log(q, c) for c in scales]}
    return FigureTable(("curve_id", "scale", "x_raw", "y_raw", "x_rescaled",
                        "y_rescaled", "qlog_y"), tuple(rows), meta)
