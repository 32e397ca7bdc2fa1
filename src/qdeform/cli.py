"""Command-line driver: point evaluation, verification suites, figure-data
tables, and distribution canonicalization.

Exit codes are a strict contract: 0 on success, 1 on any input/domain
problem (bad flags, unparseable files, domain violations -- the offending
constraint value is printed to stderr -- and results past the largest
double), 2 only when a verification suite ran and failed.  On one machine
and numpy build, identical arguments (including the seed) produce
byte-identical bytes; numpy and libm may round exp/log differently in the
last bit.  Numbers are serialized with ``repr``, the shortest
representation that round-trips the double exactly.

The fallback seed is read from the ``QDEFORM_SEED`` environment variable
when ``--seed`` is not given; the flag always wins.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

from .errors import QDeformError

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_VERIFICATION_FAILED = 2


class _SuiteNames:
    """``verify.SUITE_NAMES`` as argparse choices (``in`` iterates them),
    imported only when argparse reads them: ``verify`` loads numpy, and the
    other commands never need it."""

    def __iter__(self):
        from .verify import SUITE_NAMES
        return iter(SUITE_NAMES)


class _CliInputError(Exception):
    """Anything that must surface as exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors by default; the exit-code
    # contract reserves 2 for verification failures.
    def error(self, message):
        raise _CliInputError(f"{self.format_usage().rstrip()}\n{self.prog}: {message}")


def _fmt(value) -> str:
    if isinstance(value, float):
        # float() first: numpy scalars subclass float but repr differently
        return repr(float(value))
    return str(value)


def _default_seed() -> int:
    raw = os.environ.get("QDEFORM_SEED")
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError as err:
        raise _CliInputError(f"QDEFORM_SEED must be an integer, got {raw!r}") from err


def _parse_floats(raw: str, flag: str):
    try:
        return [float(tok) for tok in raw.split(",") if tok.strip() != ""]
    except ValueError as err:
        raise _CliInputError(f"{flag} expects comma-separated reals, got {raw!r}") from err


def _emit(text: str, out_path):
    if out_path is None:
        sys.stdout.write(text)
        return
    with open(out_path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def _csv_text(columns, rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    return buffer.getvalue()


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qdeform",
                     description="Deformed exponential calculus toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one deformed primitive")
    p_eval.add_argument("fn", choices=("qlog", "qexp", "qprod", "qratio", "tsallis"))
    p_eval.add_argument("--q", type=float, required=True)
    p_eval.add_argument("--x", type=float)
    p_eval.add_argument("--y", type=float)
    p_eval.add_argument("--p", help="comma-separated probabilities (tsallis)")
    p_eval.add_argument("--cutoff-mode", action="store_true",
                        help="extend exp_q by 0 past the domain boundary (q < 1)")

    p_verify = sub.add_parser("verify", help="run a seeded verification suite")
    # a metavar, so that building the parser does not list the choices
    p_verify.add_argument("suite", choices=_SuiteNames(), metavar="suite",
                          help="one of %(choices)s")
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--format", choices=("csv", "json"), default="json")
    p_verify.add_argument("--out")

    p_fig = sub.add_parser("fig", help="emit figure-data tables")
    p_fig.add_argument("which", choices=("fig2", "fig3"))
    p_fig.add_argument("--q", type=float)
    p_fig.add_argument("--scales", help="comma-separated scale constants")
    p_fig.add_argument("--grid-min", type=float)
    p_fig.add_argument("--grid-max", type=float)
    p_fig.add_argument("--grid-points", type=int)
    p_fig.add_argument("--format", choices=("csv", "json"), default="csv")
    p_fig.add_argument("--out")

    p_canon = sub.add_parser("canonicalize",
                             help="canonical deformed-log form of a data file")
    p_canon.add_argument("input", help="file with one real per line "
                                       "(first CSV column; '#' comments skipped)")
    p_canon.add_argument("--q", type=float, required=True)
    p_canon.add_argument("--c", type=float, required=True,
                         help="total shift constant (never defaulted)")
    p_canon.add_argument("--format", choices=("csv", "json"), default="json")
    p_canon.add_argument("--out")

    return parser


def _cmd_eval(args) -> int:
    from .algebra import q_product, q_ratio
    from .core import q_exp, q_log

    def need(flag, value):
        if value is None:
            raise _CliInputError(f"eval {args.fn} requires {flag}")
        return value

    def tsallis():
        from .combinatorics import tsallis_entropy  # the one eval that loads numpy
        return tsallis_entropy(args.q, _parse_floats(need("--p", args.p), "--p"))

    evaluate = {
        "qlog": lambda: q_log(args.q, need("--y", args.y)),
        "qexp": lambda: q_exp(args.q, need("--x", args.x), cutoff=args.cutoff_mode),
        "qprod": lambda: q_product(args.q, need("--x", args.x), need("--y", args.y)),
        "qratio": lambda: q_ratio(args.q, need("--x", args.x), need("--y", args.y)),
        "tsallis": tsallis,
    }[args.fn]
    try:
        value = float(evaluate())
    except OverflowError:  # a result past the largest double: name the flags that gave it
        given = " ".join(f"--{flag} {getattr(args, flag)!r}"
                         for flag in ("q", "x", "y", "p")
                         if getattr(args, flag) is not None)
        raise _CliInputError(
            f"error: eval {args.fn} {given}: result is not a finite double") from None
    sys.stdout.write(_fmt(value) + "\n")
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .verify import run_suite

    seed = args.seed if args.seed is not None else _default_seed()
    report = run_suite(args.suite, seed)
    if args.format == "json":
        text = _json_text(report.to_json_dict())
    else:
        rows = [(report.suite, report.seed, case.name, case.max_rel_err,
                 case.tolerance, case.passed)
                for case in report.cases]
        text = _csv_text(("suite", "seed", "name", "max_rel_err",
                          "tolerance", "pass"), rows)
    _emit(text, args.out)
    return EXIT_OK if report.passed else EXIT_VERIFICATION_FAILED


def _cmd_fig(args) -> int:
    import numpy as np

    from .dynamics import FIG2_GRID, FIG2_INDEX, FIG2_SCALES, fig2_data
    from .qgaussian import FIG3_GRID, FIG3_INDEX, FIG3_SCALES, fig3_data

    # table builder and its default index, scales and (min, max, points) grid
    build, q, scales, (lo, hi, points) = {
        "fig2": (fig2_data, FIG2_INDEX, FIG2_SCALES, FIG2_GRID),
        "fig3": (fig3_data, FIG3_INDEX, FIG3_SCALES, FIG3_GRID),
    }[args.which]
    if args.q is not None:
        q = args.q
    if args.scales is not None:
        scales = _parse_floats(args.scales, "--scales")
    if args.grid_min is not None:
        lo = args.grid_min
    if args.grid_max is not None:
        hi = args.grid_max
    if args.grid_points is not None:
        if args.grid_points < 2:
            raise _CliInputError("--grid-points must be at least 2")
        points = args.grid_points
    if not lo < hi:
        raise _CliInputError("--grid-min must be below --grid-max")
    table = build(scales, q, np.linspace(lo, hi, points))
    if args.format == "csv":
        text = _csv_text(table.columns, table.rows)
    else:
        text = _json_text({
            "columns": list(table.columns),
            "rows": [[float(v) for v in row] for row in table.rows],
            "meta": table.meta,
        })
    _emit(text, args.out)
    return EXIT_OK


def _read_values(path):
    values = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as err:
        raise _CliInputError(f"cannot read {path!r}: {err}") from err
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        token = text.split(",")[0].strip()
        try:
            value = float(token)
        except ValueError:
            if lineno == 1:
                continue  # a single header line is tolerated
            raise _CliInputError(
                f"{path}:{lineno}: cannot parse {token!r} as a real") from None
        if not math.isfinite(value):
            raise _CliInputError(f"{path}:{lineno}: {token!r} is not a finite real")
        values.append(value)
    if not values:
        raise _CliInputError(f"{path}: no data values found")
    return values


def _cmd_canonicalize(args) -> int:
    from .canonical import build_distribution, canonical_form

    xs = _read_values(args.input)
    dist = build_distribution(args.q, xs, args.c)
    form = canonical_form(dist)
    if args.format == "json":
        text = _json_text({
            "q": dist.q,
            "c": dist.shift,
            "n": dist.total,
            "slope": form.slope,
            "intercept": form.intercept,
            "count": len(dist.xs),
            "xs": list(dist.xs),
            "frequencies": list(dist.frequencies),
            "probabilities": list(dist.probabilities),
        })
    else:
        rows = [(x, f, p, dist.q, dist.shift, dist.total, form.slope,
                 form.intercept)
                for x, f, p in zip(dist.xs, dist.frequencies,
                                   dist.probabilities)]
        text = _csv_text(("x", "frequency", "p", "q", "c", "n", "slope",
                          "intercept"), rows)
    _emit(text, args.out)
    return EXIT_OK


_HANDLERS = {
    "eval": _cmd_eval,
    "verify": _cmd_verify,
    "fig": _cmd_fig,
    "canonicalize": _cmd_canonicalize,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _HANDLERS[args.command](args)
    except _CliInputError as err:
        sys.stderr.write(str(err) + "\n")
        return EXIT_INPUT_ERROR
    except (QDeformError, ValueError, OverflowError) as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
