"""FigureTable: curve blocks, columns, rows built on first use, curves."""

import gc
import weakref

import numpy as np
import pytest

from qdeform import FigureTable, fig2_data, fig3_data, frequency_rescale

GRID_1E5 = np.linspace(0.0, 10.0, 100_000)


def test_equal_builds_are_equal_and_a_changed_scale_is_not():
    assert fig2_data() == fig2_data()
    assert fig3_data() == fig3_data()
    assert fig2_data() != fig2_data([1.0, 10.0, 21.0])
    grid = np.linspace(-1.0, 1.0, 9)
    assert frequency_rescale(1.7, 1.0, 0.5, grid) == frequency_rescale(1.7, 1.0, 0.5, grid)
    with pytest.raises(TypeError):
        hash(fig2_data())


@pytest.mark.parametrize("build", [fig2_data, fig3_data])
def test_curves_are_slices_of_the_rows(build):
    table = build()
    start = 0
    for cid, curve in table.curves().items():
        assert all(row is table.rows[start + k] for k, row in enumerate(curve))
        assert {row[0] for row in curve} == {cid}
        start += len(curve)
    assert start == len(table.rows)


@pytest.mark.parametrize("name", ["curve_id", "scale", "x_raw", "qlog_y"])
def test_columns_match_the_rows(name):
    table = fig3_data(grid=np.linspace(-2.0, 2.0, 7))
    i = table.columns.index(name)
    assert table.column(name).tolist() == [float(row[i]) for row in table.rows]


def test_len_of_rows_builds_no_rows(assert_peak_alloc):
    table = fig2_data(grid=GRID_1E5)
    assert_peak_alloc(1 << 20, len, table.rows)
    assert len(table.rows) == 3 * GRID_1E5.size


def test_rows_of_1e5_curves_are_the_columns_sharing_floats():
    table = fig2_data(grid=GRID_1E5)
    n, columns = GRID_1E5.size, table.columns
    values = [table.column(c).tolist() for c in columns]
    values[0] = [int(v) for v in values[0]]
    rows = tuple(table.rows)
    assert rows == tuple(zip(*values))
    assert all(type(row[0]) is int for row in rows)
    for j in (columns.index("x_rescaled"), columns.index("y_rescaled")):
        assert all(rows[i][j] is rows[n + i][j] is rows[2 * n + i][j] for i in range(n))
    flat = [row for curve in table.curves().values() for row in curve]
    assert len(flat) == 3 * n and all(a is b for a, b in zip(flat, rows))


@pytest.mark.parametrize("enabled", [True, False])
def test_building_rows_leaves_the_collector_as_found(enabled):
    table = fig2_data(grid=GRID_1E5)
    passes = []

    def count(phase, info):
        if phase == "start":
            passes.append(info["generation"])

    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    gc.callbacks.append(count)
    try:
        table.rows[0]
        assert gc.isenabled() is enabled
        # with the collector paused, the build of 3e5 tuples starts no pass
        # (several hundred run otherwise); at most one follows it
        assert len(passes) <= 1
    finally:
        gc.callbacks.remove(count)
        (gc.enable if was else gc.disable)()


def test_fig2_data_holds_its_curves_as_arrays(assert_peak_alloc):
    # the row tuples of 3e5 rows hold about 55 MB
    assert_peak_alloc(20 << 20, fig2_data, [1.0, 10.0, 20.0], 1.3, GRID_1E5)


def test_columns_are_read_only_and_the_grid_is_copied():
    grid = np.linspace(-1.0, 1.0, 5)
    for table, name in ((fig2_data(grid=grid), "x_rescaled"),
                        (frequency_rescale(1.7, 1.0, 0.5, grid), "e_rescaled")):
        for column in (table.column(name), table.column(table.columns[-1])):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 7.0
        assert grid.flags.writeable
        grid[0] = 7.0  # the table kept its own copy
        assert table.column(name)[0] != 7.0
        grid[0] = -1.0


def test_one_block_column_is_the_stored_array():
    table = frequency_rescale(1.7, 1.0, 0.5, np.linspace(-1.0, 1.0, 5))
    assert table.column("f_raw") is table.column("f_raw")


def test_columns_are_rows_of_one_array_held_weakly():
    table = fig2_data(grid=np.linspace(0.0, 1.0, 4))
    x_raw, qlog_y = table.column("x_raw"), table.column("qlog_y")
    assert x_raw.base is qlog_y.base and x_raw.base.shape == (7, 12)
    values = weakref.ref(x_raw.base)
    expected = x_raw.tolist()
    del x_raw, qlog_y
    assert values() is None  # the table does not keep it
    assert table.column("x_raw").tolist() == expected


def test_curves_need_one_id_per_block_and_columns_one_dimension():
    table = FigureTable(("curve_id", "a"), ((np.zeros(2), np.ones(2)),))
    with pytest.raises(ValueError, match=r"^curves\(\) needs one curve_id number per block$"):
        table.curves()
    with pytest.raises(ValueError,
                       match="^a table column array must be one-dimensional, got 2 dims$"):
        FigureTable(("a",), ((np.zeros((2, 2)),),))


@pytest.mark.parametrize("blocks", [
    ((0, np.zeros(3)),),                   # one value short
    ((0, 1.0, 2.0),),                      # no array: no length
    ((np.zeros(3), np.zeros(4), 1.0),),    # arrays of two lengths
])
def test_malformed_blocks_are_rejected(blocks):
    with pytest.raises(ValueError, match="block 0"):
        FigureTable(("curve_id", "a", "b"), blocks)


# a NaN or infinite grid point once read as the overflow
# "grid**1 at q=1.3 overflows a double", or named the q_exp argument
@pytest.mark.parametrize("build", [
    lambda grid: fig2_data([1.0], 1.3, grid),
    lambda grid: fig3_data([1.0, 2.0], 1.7, grid),
    lambda grid: frequency_rescale(1.7, 1.0, 0.0, grid),
])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_grid_point_is_named(build, bad):
    with pytest.raises(ValueError, match=rf"^grid\[1\] must be finite, got {bad!r}$"):
        build([0.5, bad, 1.0])
