"""CLI contract: flags, exit codes, deterministic serialization."""

import argparse
import csv
import functools
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qdeform.cli
from qdeform import q_log
from qdeform.cli import build_parser, main

DATA = Path(__file__).resolve().parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_qexp(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "qexp", "--q", "0.5", "--x", "6")
        assert code == 0
        assert float(out) == pytest.approx(16.0, rel=1e-14)

    def test_qlog(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "qlog", "--q", "2", "--y", "2")
        assert code == 0
        assert float(out) == 0.5

    def test_qprod(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "qprod", "--q", "0.5",
                               "--x", "4", "--y", "9")
        assert code == 0
        assert float(out) == pytest.approx(16.0, rel=1e-14)

    def test_qratio(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "qratio", "--q", "0.5",
                               "--x", "16", "--y", "9")
        assert code == 0
        assert float(out) == pytest.approx(4.0, rel=1e-14)

    def test_tsallis(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "tsallis", "--q", "2",
                               "--p", "0.5,0.5")
        assert code == 0
        assert float(out) == pytest.approx(0.5, rel=1e-14)

    def test_tsallis_of_a_deterministic_vector_is_plus_zero(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "tsallis", "--q", "1", "--p", "1,0")
        assert code == 0
        assert out == "0.0\n"

    def test_domain_violation_exits_one_with_constraint(self, capsys):
        code, out, err = run_cli(capsys, "eval", "qexp", "--q", "1.3",
                                 "--x", "4")
        assert code == 1
        assert out == ""
        assert "-0.2" in err  # the offending bracket value is reported

    def test_missing_argument_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "eval", "qexp", "--q", "1.3")
        assert code == 1
        assert "requires" in err

    @pytest.mark.parametrize("argv", [
        ("qexp", "--q", "1", "--x", "1000"),
        ("qlog", "--q", "-800", "--y", "10"),
        ("qexp", "--q", "0.999999", "--x", "1e6"),
        ("qprod", "--q", "1", "--x", "1e300", "--y", "1e300"),
    ])
    def test_overflow_exits_one_without_traceback(self, argv, src_env):
        result = subprocess.run(
            [sys.executable, "-m", "qdeform", "eval", *argv],
            capture_output=True, env=src_env, text=True)
        assert result.returncode == 1
        assert result.stdout == ""
        assert "Traceback" not in result.stderr
        assert f"eval {argv[0]}" in result.stderr

    def test_output_round_trips_exactly(self, capsys):
        _, out, _ = run_cli(capsys, "eval", "qexp", "--q", "1.3", "--x", "-1")
        from qdeform import q_exp
        assert float(out.strip()) == q_exp(1.3, -1.0)


class TestVerify:
    def test_canonical_suite_json(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "canonical", "--seed", "42")
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        assert payload["seed"] == 42
        assert {c["name"] for c in payload["cases"]} >= {
            "split_probability_invariance", "canonical_reconstruction"}

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "canonical", "--seed", "42",
                               "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["suite", "seed", "name", "max_rel_err",
                           "tolerance", "pass"]
        assert all(row[0] == "canonical" for row in rows[1:])

    def test_unknown_suite_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "verify", "bogus")
        assert code == 1
        assert err.startswith("usage: ")
        assert err.splitlines()[-1].startswith("error: qdeform verify: argument suite")

    def test_exit_two_on_failed_invariant(self, capsys, monkeypatch):
        from qdeform.verify import CaseResult, SuiteReport

        def failing(name, seed):
            return SuiteReport(suite=name, seed=seed, cases=(
                CaseResult(name="forced", max_rel_err=1.0,
                           tolerance=1e-12, passed=False),))

        monkeypatch.setattr("qdeform.verify.run_suite", failing)
        code, out, _ = run_cli(capsys, "verify", "canonical", "--seed", "0")
        assert code == 2
        assert json.loads(out)["pass"] is False


class TestFig:
    def test_fig2_default_csv(self, capsys):
        code, out, _ = run_cli(capsys, "fig", "fig2")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["curve_id", "scale", "x_raw", "y_raw",
                           "x_rescaled", "y_rescaled", "qlog_y"]
        assert len(rows) == 1 + 3 * 501
        assert "\r" not in out  # LF line endings
        for which in ("fig2", "fig3"):
            _, out, _ = run_cli(capsys, "fig", which)
            for row in list(csv.reader(io.StringIO(out)))[1:]:
                for cell in row:
                    float(cell)  # e.g. "np.float64(0.01)" would not parse

    def test_csv_round_trips_qlog_column(self, capsys):
        _, out, _ = run_cli(capsys, "fig", "fig2")
        rows = list(csv.DictReader(io.StringIO(out)))
        for row in rows[::47]:
            scale = float(row["scale"])
            y_rescaled = float(row["y_rescaled"])
            recomputed = q_log(1.3, y_rescaled * scale)
            assert abs(recomputed - float(row["qlog_y"])) <= \
                1e-12 * max(1.0, abs(recomputed))

    def test_fig3_json(self, capsys):
        code, out, _ = run_cli(capsys, "fig", "fig3", "--format", "json",
                               "--grid-points", "11")
        assert code == 0
        payload = json.loads(out)
        assert payload["meta"]["q"] == 1.7
        assert len(payload["rows"]) == 3 * 11

    def test_classical_override_collapses_x_axis(self, capsys):
        code, out, _ = run_cli(capsys, "fig", "fig2", "--q", "1",
                               "--grid-points", "5")
        assert code == 0
        for row in csv.DictReader(io.StringIO(out)):
            assert row["x_raw"] == row["x_rescaled"]

    def test_scale_override(self, capsys):
        code, out, _ = run_cli(capsys, "fig", "fig2", "--scales", "2,5",
                               "--grid-points", "3")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 1 + 2 * 3

    @pytest.mark.parametrize("argv, named", [
        (("fig2", "--q", "-1000", "--scales", "1e300"),
         "x scale at q=-1000.0 overflows a double (scales[0]=1e+300)"),
        (("fig2", "--q", "-10", "--scales", "1e-300"),
         "x scale of scales[0] must be a positive finite real"),
        (("fig2", "--q", "1.3", "--scales", "1e-300", "--grid-max", "1e300"),
         "x_raw of scales[0] at q=1.3 overflows a double"),
        (("fig2", "--q", "1", "--scales", "1e10", "--grid-min=-700"),
         "y_raw of scales[0] at q=1.0 overflows a double"),
        (("fig3", "--q", "1", "--grid-min=-1000"),  # the profile underflows to 0
         "y_raw of scales[0] at grid[0]=-1000.0 must be a positive finite real"),
    ])
    def test_bad_scale_exits_one_naming_it(self, argv, named, capsys):
        code, out, err = run_cli(capsys, "fig", *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert named in err

    # ``--scales ,`` once printed a header-only table, and ``--scales ""``
    # fell back to the default scales
    @pytest.mark.parametrize("scales", [",", ""])
    def test_empty_scales_exit_one(self, scales, capsys):
        code, out, err = run_cli(capsys, "fig", "fig2", "--scales", scales)
        assert code == 1
        assert out == ""
        assert err == "error: scales must be non-empty\n"

    def test_bad_grid_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "fig", "fig2", "--grid-min", "3",
                               "--grid-max", "1")
        assert code == 1
        assert "grid" in err

    # saved output: how a table stores its curves must not move a byte
    @pytest.mark.parametrize("name, argv", [
        ("fig2_points5", ("fig2",)),
        ("fig3_points5", ("fig3",)),
        ("fig2_points5_scales2_5", ("fig2", "--scales", "2,5")),
    ])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_output_matches_saved_text(self, name, argv, fmt, capsys):
        code, out, _ = run_cli(capsys, "fig", *argv, "--grid-points", "5",
                               "--format", fmt)
        assert code == 0
        assert out == (DATA / f"{name}.{fmt}").read_text(encoding="utf-8")


# a malformed value in a list flag, and a grid of one point
@pytest.mark.parametrize("argv, message", [
    (("eval", "tsallis", "--q", "2", "--p", "0.5,x"),
     "--p expects comma-separated reals, got '0.5,x'"),
    (("fig", "fig2", "--scales", "1,a"), "--scales expects comma-separated reals, got '1,a'"),
    (("fig", "fig2", "--grid-points", "1"), "--grid-points must be at least 2"),
])
def test_malformed_flag_exits_one_on_one_line(argv, message, capsys):
    assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")


def test_canonicalize_without_values_exits_one(tmp_path, capsys):
    # a header line and a comment, but no data value
    path = tmp_path / "xs.txt"
    path.write_text("x\n# no values\n\n", encoding="utf-8")
    assert run_cli(capsys, "canonicalize", str(path), "--q", "1.3", "--c", "0.2") == (
        1, "", f"error: {path}: no data values found\n")


# saved output of the other CSV writers: writing by column must not move a byte
@pytest.mark.parametrize("name, argv", [
    ("canonicalize_q1.3_c0.2.csv", ("canonicalize", str(DATA / "canonicalize_xs.txt"),
                                    "--q", "1.3", "--c", "0.2", "--format", "csv")),
    ("canonicalize_q1.3_c0.2.json", ("canonicalize", str(DATA / "canonicalize_xs.txt"),
                                     "--q", "1.3", "--c", "0.2", "--format", "json")),
    ("verify_canonical_seed0.csv", ("verify", "canonical", "--seed", "0", "--format", "csv")),
])
def test_canonicalize_and_verify_match_saved_text(name, argv, capsys):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == (DATA / name).read_text(encoding="utf-8")


# saved `verify all` reports: every case must read the same bits
@pytest.mark.parametrize("seed", [0, 2])
def test_verify_all_matches_saved_report(seed, capsys):
    code, out, _ = run_cli(capsys, "verify", "all", "--seed", str(seed))
    assert code == 0
    saved = json.loads((DATA / f"verify_all_seed{seed}.json").read_text(encoding="utf-8"))
    assert json.loads(out) == saved


# a block with no sequence once ended the pass: it and every later block were dropped
def test_block_without_a_sequence_is_named():
    from qdeform.cli import _csv_text

    with pytest.raises(ValueError, match="block 1 needs at least one sequence"):
        _csv_text(("a", "b"), [(0, [1.0, 2.0]), (1, 2.0), (2, [3.0])])


def test_csv_text_writes_what_csv_writer_writes():
    # the writer of rows it replaced: csv.writer over the formatted cells of each row
    from qdeform.cli import _csv_text, _row_cells

    def fmt(v):
        return repr(float(v)) if isinstance(v, float) else str(v)

    shared = (0.1, 2.5e-308, -3.0)
    blocks = [(0, "a,b", shared, [1, True, 'say "hi"'], 1.5),
              (1, "plain", shared, ("x", None, 7.0), float("1e300"))]
    rows = [row for block in blocks
            for row in zip(*(v if isinstance(v, (tuple, list)) else [v] * 3 for v in block))]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["id", "label", "value", "mixed", "scale"])
    for row in rows:
        writer.writerow([fmt(v) for v in row])
    assert _csv_text(("id", "label", "value", "mixed", "scale"), blocks) == buffer.getvalue()
    # with no formatter, the pass yields the values themselves
    unformatted = list(_row_cells(blocks))
    assert unformatted == rows
    assert all(a[2] is b[2] is v for a, b, v in zip(unformatted[:3], unformatted[3:], shared))
    # an array shared by two blocks is converted once: both give the same floats
    array = np.array(shared)
    unformatted = list(_row_cells([(0, array), (1, array)]))
    assert unformatted == [(0, 0.1), (0, 2.5e-308), (0, -3.0), (1, 0.1), (1, 2.5e-308), (1, -3.0)]
    assert all(type(v) is float for _, v in unformatted)
    assert all(a[1] is b[1] for a, b in zip(unformatted[:3], unformatted[3:]))


def test_json_table_text_writes_what_json_dumps_writes():
    # the writer of rows it replaced: json.dumps of each row, zipped from the columns
    from qdeform import fig2_data, fig3_data
    from qdeform.cli import _json_table_text

    rng = np.random.default_rng(22)
    for trial in range(40):
        points = 1 if trial < 4 else int(rng.integers(1, 41))  # one-point curves first
        grid = np.sort(rng.uniform(-1.0, 1.0, points))
        grid[rng.integers(points)] = rng.choice([-0.0, 0.0, 5e-324, -2.5e-320, 1e-310])
        scales = rng.uniform(0.5, 50.0, rng.integers(1, 5)).tolist()
        table = (fig2_data, fig3_data)[trial % 2](scales, rng.uniform(0.6, 1.4), grid)
        old = json.dumps({"columns": list(table.columns),
                          "rows": [list(row) for row in zip(
                              *(table.column(c).tolist() for c in table.columns))],
                          "meta": table.meta}, indent=2, sort_keys=True) + "\n"
        assert _json_table_text(table.columns, table.blocks, table.meta) == old


class TestCanonicalize:
    def test_hand_case(self, capsys, tmp_path):
        data = tmp_path / "xs.txt"
        data.write_text("0\n1\n")
        code, out, _ = run_cli(capsys, "canonicalize", str(data),
                               "--q", "2", "--c", "0")
        assert code == 0
        payload = json.loads(out)
        assert payload["slope"] == pytest.approx(-1.5, abs=1e-14)
        assert payload["intercept"] == pytest.approx(-0.5, abs=1e-14)
        assert payload["probabilities"] == pytest.approx(
            [2.0 / 3.0, 1.0 / 3.0], rel=1e-14)
        assert payload["c"] == 0.0

    def test_single_line(self, capsys, tmp_path):
        data = tmp_path / "xs.txt"
        data.write_text("1.5\n")
        code, out, _ = run_cli(capsys, "canonicalize", str(data),
                               "--q", "1.5", "--c", "0.5")
        assert code == 0
        assert json.loads(out)["probabilities"] == [1.0]

    def test_classical_ignores_shift(self, capsys, tmp_path):
        data = tmp_path / "xs.txt"
        data.write_text("0\n0.5\n2\n")
        outputs = []
        for c in ("0", "3"):
            code, out, _ = run_cli(capsys, "canonicalize", str(data),
                                   "--q", "1", "--c", c)
            assert code == 0
            outputs.append(json.loads(out))
        assert outputs[0]["probabilities"] == pytest.approx(
            outputs[1]["probabilities"], rel=1e-12)
        assert outputs[0]["slope"] == outputs[1]["slope"]
        assert outputs[0]["intercept"] == pytest.approx(
            outputs[1]["intercept"], rel=1e-12)

    def test_csv_column_and_header_tolerated(self, capsys, tmp_path):
        data = tmp_path / "xs.csv"
        data.write_text("x,weight\n0,9\n1,9\n")
        code, out, _ = run_cli(capsys, "canonicalize", str(data),
                               "--q", "2", "--c", "0")
        assert code == 0
        assert json.loads(out)["count"] == 2

    def test_parse_error_names_line(self, capsys, tmp_path):
        data = tmp_path / "xs.txt"
        data.write_text("0\nnot-a-number\n1\n")
        code, _, err = run_cli(capsys, "canonicalize", str(data),
                               "--q", "2", "--c", "0")
        assert code == 1
        assert ":2:" in err

    def test_header_after_comments_tolerated(self, capsys, tmp_path):
        data = tmp_path / "xs.txt"
        data.write_text("# data\n\nx\n1\n2\n")
        code, out, _ = run_cli(capsys, "canonicalize", str(data),
                               "--q", "2", "--c", "0")
        assert code == 0
        assert json.loads(out)["xs"] == [1.0, 2.0]

    # only the first line neither blank nor a comment may be a header
    @pytest.mark.parametrize("text, lineno, token", [
        ("# data\nx\ny\n1\n", 3, "y"),
        ("# data\n1\n\nx\n2\n", 4, "x"),
    ])
    def test_later_non_number_names_its_line(self, text, lineno, token, capsys, tmp_path):
        data = tmp_path / "xs.txt"
        data.write_text(text)
        assert run_cli(capsys, "canonicalize", str(data), "--q", "2", "--c", "0") == (
            1, "", f"error: {data}:{lineno}: cannot parse {token!r} as a real\n")

    @pytest.mark.parametrize("bad", ["inf", "-inf", "nan"])
    def test_nonfinite_value_names_line(self, bad, capsys, tmp_path):
        data = tmp_path / "xs.txt"
        data.write_text(f"0\n{bad}\n1\n")
        code, _, err = run_cli(capsys, "canonicalize", str(data),
                               "--q", "2", "--c", "0")
        assert code == 1
        assert f":2: {bad!r} is not a finite real" in err

    def test_missing_file_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "canonicalize", "/nonexistent",
                               "--q", "2", "--c", "0")
        assert code == 1

    def test_domain_failure_exits_one(self, capsys, tmp_path):
        data = tmp_path / "xs.txt"
        data.write_text("-5\n0\n")
        code, _, err = run_cli(capsys, "canonicalize", str(data),
                               "--q", "2", "--c", "0")
        assert code == 1
        assert "constraint" in err


class TestDeterminism:
    def test_verify_byte_identical(self, tmp_path, src_env):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            result = subprocess.run(
                [sys.executable, "-m", "qdeform", "verify", "canonical",
                 "--seed", "42", "--format", "json", "--out", str(path)],
                capture_output=True, env=src_env)
            assert result.returncode == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_fig_byte_identical(self, tmp_path, src_env):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            result = subprocess.run(
                [sys.executable, "-m", "qdeform", "fig", "fig3",
                 "--grid-points", "21", "--out", str(path)],
                capture_output=True, env=src_env)
            assert result.returncode == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()


def _run_qdeform(argv, tmp_path, src_env):
    """``python -m qdeform ARGV`` with RuntimeWarnings raised as errors.  In
    ARGV, ``{pts}`` is a three-point data file and ``{tmp}`` a directory."""
    pts = tmp_path / "pts.txt"
    pts.write_text("0\n1\n2\n")
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "qdeform",
         *(a.format(pts=pts, tmp=tmp_path) for a in argv)],
        capture_output=True, env=src_env, text=True)


@pytest.mark.parametrize("argv", [
    ("fig", "fig2", "--q", "1", "--grid-min=-1000"),  # exp(1000) overflows
    ("canonicalize", "{pts}", "--q", "1", "--c", "1000"),
    ("canonicalize", "{pts}", "--q", "1", "--c", "-1000"),  # total underflows to 0
    # grid**2 overflows on a finite grid point
    ("fig", "fig3", "--grid-min", "0", "--grid-max", "1.4e308", "--grid-points", "3"),
])
def test_out_of_range_exits_one_without_traceback(argv, tmp_path, src_env):
    result = _run_qdeform(argv, tmp_path, src_env)
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.startswith("error: ")
    assert "Traceback" not in result.stderr
    assert "RuntimeWarning" not in result.stderr


# an output path or grid flag the command cannot use is named on one
# `error: ` line on stderr: no traceback, no numpy warning
@pytest.mark.parametrize("argv, named", [
    (("fig", "fig2", "--out", "{tmp}/missing/x.csv"), "cannot write "),
    (("fig", "fig2", "--out", "{tmp}"), "cannot write "),  # a directory
    (("verify", "canonical", "--out", "{tmp}/missing/v.json"), "cannot write "),
    (("canonicalize", "{pts}", "--q", "1.3", "--c", "0.2", "--out", "{tmp}/missing/x.csv"),
     "cannot write "),
    (("fig", "fig2", "--grid-max", "inf"), "--grid-max must be finite, got inf"),
    (("fig", "fig2", "--grid-min=-inf"), "--grid-min must be finite, got -inf"),
    (("fig", "fig2", "--grid-max", "nan"), "--grid-max must be finite, got nan"),
    (("fig", "fig3", "--grid-min=-1e308", "--grid-max", "1e308", "--grid-points", "3"),
     "--grid-max minus --grid-min must be a finite double, got inf"),
])
def test_bad_output_or_grid_flag_exits_one_on_one_line(argv, named, tmp_path, src_env):
    result = _run_qdeform(argv, tmp_path, src_env)
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.startswith("error: " + named)
    assert result.stderr.count("\n") == 1


# `python -c` running main on its argv under a 256 MB address-space cap, so
# that an array past the cap fails to allocate whatever the machine overcommits
_UNDER_MEMORY_CAP = ("import resource, sys\n"
                     "resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))\n"
                     "from qdeform.cli import main\n"
                     "sys.exit(main(sys.argv[1:]))\n")


# a grid no array can hold fails in linspace; a grid that fits, building the table
@pytest.mark.parametrize("points", ["10000000000", "10000000"])
def test_table_past_memory_exits_one_naming_grid_points(points, src_env):
    result = subprocess.run(
        [sys.executable, "-c", _UNDER_MEMORY_CAP, "fig", "fig2", "--grid-points", points],
        capture_output=True, env=src_env, text=True)
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr == f"error: --grid-points {points}: the table does not fit in memory\n"


# `--out` is checked before any work: the table builder or suite never
# runs, and the one error line is the one opening the path would give
@pytest.mark.parametrize("argv, builder", [
    (("fig", "fig2", "--grid-points", "100000", "--out", "{tmp}/missing/x.csv"),
     "qdeform.dynamics.fig2_data"),
    (("fig", "fig3", "--out", "{tmp}"), "qdeform.qgaussian.fig3_data"),  # a directory
    (("fig", "fig2", "--out", "{tmp}/file/x.csv"), "qdeform.dynamics.fig2_data"),
    (("verify", "all", "--out", "{tmp}/missing/v.json"), "qdeform.verify.run_suite"),
    (("canonicalize", "{tmp}/missing/pts.txt", "--q", "1.3", "--c", "0.2", "--out",
      "{tmp}/missing/x.csv"), "qdeform.canonical.build_distribution"),
])
def test_unwritable_out_is_refused_before_any_work(argv, builder, tmp_path, monkeypatch,
                                                   capsys):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{builder} ran before --out was checked")

    monkeypatch.setattr(builder, refuse)
    (tmp_path / "file").write_text("")
    argv = [a.format(tmp=tmp_path) for a in argv]
    with pytest.raises(OSError) as opening:
        open(argv[-1], "w")
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: cannot write {argv[-1]!r}: {opening.value}\n")


def test_failed_computation_writes_no_file(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["fig", "fig2", "--q", "1", "--grid-min=-1000", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_main_builds_one_parser_per_process(monkeypatch, capsys):
    runs = [("eval", "qlog", "--q", "1.5", "--y", "2"),
            ("eval", "nope"),  # a usage error: exit 1 after the usage block
            ("fig", "fig2", "--grid-points", "3"),
            ("eval", "qexp", "--q", "0.5", "--x", "6")]
    fresh = []
    for argv in runs:
        qdeform.cli._parser.cache_clear()
        fresh.append((main(list(argv)), *capsys.readouterr()))
    built = []

    def counted():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(qdeform.cli, "_parser", functools.cache(counted))
    reused = [(main(list(argv)), *capsys.readouterr()) for argv in runs]
    assert len(built) == 1
    assert reused == fresh
    assert [run[0] for run in reused] == [0, 1, 0, 0]


def test_nonfinite_data_line_exits_one_naming_the_line(tmp_path, src_env):
    pts = tmp_path / "pts.txt"
    pts.write_text("0.0\n-inf\n1.0\n")
    result = subprocess.run(
        [sys.executable, "-m", "qdeform", "canonicalize", str(pts),
         "--q", "1.5", "--c", "0"],
        capture_output=True, env=src_env, text=True)
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
    assert ":2:" in result.stderr
    assert "not a finite real" in result.stderr
    assert "Traceback" not in result.stderr


def test_numeric_cells_are_finite_floats(capsys, tmp_path):
    data = tmp_path / "xs.txt"
    data.write_text("0\n0.5\n2\n")
    numeric = {"seed", "max_rel_err", "tolerance", "x", "frequency", "p", "q", "c",
               "n", "slope", "intercept"}
    cells = []
    for argv in (("verify", "all", "--seed", "0"),
                 ("canonicalize", str(data), "--q", "1.5", "--c", "0.5")):
        code, out, _ = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        cells += [row[k] for row in rows for k in numeric & row.keys()]
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        if argv[0] == "verify":
            cells += [case["max_rel_err"] for case in payload["cases"]]
            cells += list(payload["tolerances"].values())
        else:
            cells += [payload[k] for k in ("q", "c", "n", "slope", "intercept")]
            cells += payload["xs"] + payload["frequencies"] + payload["probabilities"]
    assert len(cells) > 100
    assert all(math.isfinite(float(cell)) for cell in cells)


# ``python -m qdeform ARGV``, then whether the process had loaded numpy, its
# qdeform modules, and which of dataclasses and json it loaded beyond what the
# bare interpreter (and its site) had already loaded
_RUN_AND_REPORT_IMPORTS = (
    "import runpy, sys\n"
    "bare = set(sys.modules)\n"
    "try:\n"
    "    runpy.run_module('qdeform', run_name='__main__', alter_sys=True)\n"
    "except SystemExit as stop:\n"
    "    print('numpy' in sys.modules, stop.code)\n"
    "    print(*sorted(m for m in sys.modules if m.startswith('qdeform.')))\n"
    "    print(*sorted({'dataclasses', 'json'} & (sys.modules.keys() - bare)))\n")


def _eval_choices():
    """The ``fn`` choices of the parser's ``eval`` command."""
    (commands,) = [action for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    (fn,) = [action for action in commands.choices["eval"]._actions if action.dest == "fn"]
    return fn.choices


# one in-domain argument list for each eval function the parser offers
_EVAL_ARGS = {
    "qlog": ("--q", "1.5", "--y", "2"),
    "qexp": ("--q", "1.5", "--x", "0.3"),
    "qprod": ("--q", "0.5", "--x", "4", "--y", "9"),
    "qratio": ("--q", "0.5", "--x", "16", "--y", "9"),
    "tsallis": ("--q", "2", "--p", "0.5,0.5"),
}


def test_every_eval_function_has_arguments():
    assert set(_eval_choices()) == _EVAL_ARGS.keys()


# each command's qdeform modules beside ``cli``, ``core`` and ``errors``, and
# which of dataclasses and json it loads: only what its own output needs
_LOADS = {
    ("eval", "qlog"): ("", ""),
    ("eval", "qexp"): ("", ""),
    ("eval", "tsallis"): ("combinatorics", ""),
    ("eval", "qprod"): ("algebra", "dataclasses"),
    ("eval", "qratio"): ("algebra", "dataclasses"),
    ("fig", "fig2"): ("_array dynamics tables", "dataclasses"),
    ("fig", "fig3"): ("_array qgaussian tables", "dataclasses"),
    ("canonicalize", "csv"): ("canonical", "dataclasses"),
    ("canonicalize", "json"): ("canonical", "dataclasses json"),
}


@pytest.mark.parametrize("argv, loads_numpy", [
    *((("eval", fn, *_EVAL_ARGS.get(fn, ())), False) for fn in _eval_choices()),
    # a control: ``fig`` builds numpy arrays, so the probe must report it
    (("fig", "fig3", "--grid-points", "3"), True),
    (("canonicalize", "DATA", "--q", "1.3", "--c", "0.2", "--format", "csv"), False),
    (("canonicalize", "DATA", "--q", "1.3", "--c", "0.2", "--format", "json"), False),
    (("fig", "fig2", "--grid-points", "3"), True),
])
def test_scalar_commands_load_no_numpy(argv, loads_numpy, src_env, tmp_path):
    data = tmp_path / "xs.txt"
    data.write_text("0.1\n0.5\n1.2\n")
    modules, extra = _LOADS[(argv[0], argv[-1] if argv[0] == "canonicalize" else argv[1])]
    argv = [str(data) if a == "DATA" else a for a in argv]
    result = subprocess.run([sys.executable, "-c", _RUN_AND_REPORT_IMPORTS, *argv],
                            capture_output=True, env=src_env, text=True)
    assert result.stderr == ""
    assert result.stdout.splitlines()[-3:] == [
        f"{loads_numpy} 0",
        " ".join(sorted(f"qdeform.{m}" for m in ["cli", "core", "errors", *modules.split()])),
        extra]


def test_import_loads_no_scipy(src_env):
    # scipy is no runtime dependency: importing it dominated the start-up
    # time of every command, and its quadrature that of ``verify all``
    code = ("import qdeform, qdeform.cli, sys; "
            "from qdeform.verify import run_all; "
            "assert run_all(0).passed; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    result = subprocess.run([sys.executable, "-c", code],
                            capture_output=True, env=src_env, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
