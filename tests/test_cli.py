"""CLI contract: flags, exit codes, deterministic serialization."""

import csv
import io
import json
import math
import subprocess
import sys

import pytest

from qdeform import q_log
from qdeform.cli import main


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
        assert "usage" in err.lower()

    def test_exit_two_on_failed_invariant(self, capsys, monkeypatch):
        from qdeform.verify import CaseResult, SuiteReport

        def failing(name, seed):
            return SuiteReport(suite=name, seed=seed, cases=(
                CaseResult(name="forced", max_rel_err=1.0,
                           tolerance=1e-12, passed=False),))

        monkeypatch.setattr("qdeform.cli.run_suite", failing)
        code, out, _ = run_cli(capsys, "verify", "canonical", "--seed", "0")
        assert code == 2
        assert json.loads(out)["pass"] is False

    def test_seed_env_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("QDEFORM_SEED", "7")
        code, out, _ = run_cli(capsys, "verify", "canonical")
        assert code == 0
        assert json.loads(out)["seed"] == 7

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("QDEFORM_SEED", "7")
        code, out, _ = run_cli(capsys, "verify", "canonical", "--seed", "9")
        assert code == 0
        assert json.loads(out)["seed"] == 9


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

    def test_bad_grid_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "fig", "fig2", "--grid-min", "3",
                               "--grid-max", "1")
        assert code == 1
        assert "grid" in err


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


@pytest.mark.parametrize("argv", [
    ("fig", "fig2", "--q", "1", "--grid-min=-1000"),  # exp(1000) overflows
    ("canonicalize", "{pts}", "--q", "1", "--c", "1000"),
    ("canonicalize", "{pts}", "--q", "1", "--c", "-1000"),  # total underflows to 0
])
def test_out_of_range_exits_one_without_traceback(argv, tmp_path, src_env):
    pts = tmp_path / "pts.txt"
    pts.write_text("0\n1\n2\n")
    result = subprocess.run(
        [sys.executable, "-m", "qdeform", *(a.format(pts=pts) for a in argv)],
        capture_output=True, env=src_env, text=True)
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.startswith("error: ")
    assert "Traceback" not in result.stderr
    assert "RuntimeWarning" not in result.stderr


def test_nonfinite_data_line_exits_one_naming_the_line(tmp_path, src_env):
    pts = tmp_path / "pts.txt"
    pts.write_text("0.0\n-inf\n1.0\n")
    result = subprocess.run(
        [sys.executable, "-m", "qdeform", "canonicalize", str(pts),
         "--q", "1.5", "--c", "0"],
        capture_output=True, env=src_env, text=True)
    assert result.returncode == 1
    assert result.stdout == ""
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
