"""Column-oriented result tables shared by the figure generators and the CLI."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .core import _check_positive, _q_exp_array, _q_log_array, check_index, q_log

__all__ = ["FigureTable"]


@dataclass(frozen=True)
class FigureTable:
    """An immutable table with named columns plus run metadata.

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
    """Curves y = c * exp_q(-(x / c**((1-q)/power))**power), one per scale c,
    sampled at x = grid * c**((1-q)/power).  The rescaled columns are
    divided out of the raw ones, so that their coincidence across scales
    measures rounding; qlog_y = log_q(y_raw) = -x_raw**power + log_q(c)."""
    q = check_index(q)
    grid = np.asarray(grid, dtype=float)
    scales = [_check_positive(f"scales[{ci}]", c) for ci, c in enumerate(scales)]
    rows = []
    for ci, c in enumerate(scales):
        x_scale = c ** ((1.0 - q) / power)
        # the kernel reports a non-finite argument (x_scale 0 or grid * x_scale inf)
        with np.errstate(over="ignore", invalid="ignore"):
            x_raw = grid * x_scale
            x_rescaled = x_raw / x_scale
            y_raw = c * _q_exp_array(q, -(x_rescaled ** power))
        rows += zip(repeat(ci), repeat(c), x_raw.tolist(), y_raw.tolist(),
                    x_rescaled.tolist(), (y_raw / c).tolist(),
                    _q_log_array(q, y_raw).tolist())
    meta = {"q": q, **meta, "scales": scales, "grid_points": int(grid.size),
            "qlog_intercepts": [q_log(q, c) for c in scales]}
    return FigureTable(("curve_id", "scale", "x_raw", "y_raw", "x_rescaled",
                        "y_rescaled", "qlog_y"), tuple(rows), meta)
