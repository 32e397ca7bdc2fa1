"""Command-line driver: point evaluation, verification suites, figure-data
tables, and distribution canonicalization.

Exit codes are a strict contract: 0 on success, 1 on any input/domain
problem (bad flags, unparseable files, domain violations -- the offending
constraint value is printed to stderr -- and results past the largest
double), 2 only when a verification suite ran and failed.  Exit 1 writes one
``error: ...`` line to stderr, after argparse's usage block for a usage
error.  On one machine and numpy build, identical arguments (including the
seed) produce byte-identical bytes; numpy and libm may round exp/log
differently in the last bit.  Numbers are serialized with ``repr``, the
shortest representation that round-trips the double exactly.

Tables are written by column: a table arrives as blocks, each holding per
column either a sequence or one value for all of the block's rows (a figure
table's curve blocks, one block for ``canonicalize`` and for ``verify``).
Each distinct sequence is formatted once and each single value once per
block, and the cells are joined straight into CSV lines or, for ``fig
--format json``, into the ``"rows"`` arrays; no list of row tuples is built.
A CSV cell that holds a comma, a quote or a line break is quoted, as
:mod:`csv` quotes it.

Each command imports only the modules its own output needs: ``eval`` the one
module its function lives in, ``fig`` the one of its figure, and :mod:`json`
is loaded only to write JSON.  ``--out`` is checked before any work and
written last.  In-process callers of ``main`` build the parser only once.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from itertools import chain, repeat, starmap

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
    # contract reserves 2 for verification failures.  The usage block goes
    # out first, then main's one error line.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _CliInputError(f"{self.prog}: {message}")


def _parse_floats(raw: str, flag: str):
    try:
        return [float(tok) for tok in raw.split(",") if tok.strip() != ""]
    except ValueError as err:
        raise _CliInputError(f"{flag} expects comma-separated reals, got {raw!r}") from err


def _emit(text: str, out_path):
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as err:
        raise _CliInputError(f"cannot write {out_path!r}: {err}") from err


def _cell(value) -> str:
    """One CSV cell, quoted where it holds a comma, a quote or a line break."""
    if type(value) is float:  # a float's repr holds none of them
        return repr(value)
    # float() first: numpy scalars subclass float but repr differently
    text = repr(float(value)) if isinstance(value, float) else str(value)
    if any(ch in text for ch in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _is_column(value) -> bool:
    return isinstance(value, (list, tuple)) or getattr(value, "ndim", 0) > 0  # not a numpy scalar


def _row_cells(blocks, fmt=None):
    """The rows of blocks, each a tuple of ``fmt`` cells, or of the values
    themselves where ``fmt`` is None (``FigureTable.rows``).

    Each block holds one value per column: a sequence (list, tuple or numpy
    array) with one entry per row, or a single value for every row of the
    block; a block with no sequence raises :class:`ValueError` naming it.
    Each distinct sequence is formatted once and each single value once per
    block."""
    formatted = {}  # id(sequence) -> its cells; the blocks keep each id alive

    def cells(values):
        if id(values) not in formatted:
            entries = values.tolist() if hasattr(values, "tolist") else values
            formatted[id(values)] = list(map(fmt, entries)) if fmt else entries
        return formatted[id(values)]

    def block_rows(b, block):
        # a StopIteration here would end the chain: the block and all after it dropped
        if (n := next((len(v) for v in block if _is_column(v)), None)) is None:
            raise ValueError(f"block {b} needs at least one sequence")
        return zip(*(cells(v) if _is_column(v) else repeat(fmt(v) if fmt else v, n)
                     for v in block))

    return chain.from_iterable(starmap(block_rows, enumerate(blocks)))


def _csv_text(columns, blocks) -> str:
    """The CSV text of a header and blocks of rows (see ``_row_cells``)."""
    lines = [",".join(map(_cell, columns)), *map(",".join, _row_cells(blocks, _cell))]
    return "\n".join(lines) + "\n"


def _json_text(payload) -> str:
    import json  # only the JSON writers load it

    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _json_table_text(columns, blocks, meta) -> str:
    """``_json_text`` of ``{"columns", "meta", "rows"}``, the rows written from
    blocks (see ``_row_cells``) with every cell as a float.  ``json`` writes
    only the columns and meta, and the rows, the last key in sorted order,
    are spliced in after them.  The cells must be finite: ``json`` would
    write ``NaN`` where ``repr`` writes ``nan`` (a figure table's columns are
    all checked finite)."""
    head = _json_text({"columns": list(columns), "meta": meta})
    rows = "\n    ],\n    [\n      ".join(
        map(",\n      ".join, _row_cells(blocks, lambda v: repr(float(v)))))
    return f'{head[:-3]},\n  "rows": [\n    [\n      {rows}\n    ]\n  ]\n}}\n'


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
    p_verify.add_argument("--seed", type=int, default=0)
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
    # the package imports each name on first access: only its function's module loads
    lib = sys.modules[__package__]

    def need(flag, value):
        if value is None:
            raise _CliInputError(f"eval {args.fn} requires {flag}")
        return value

    evaluate = {
        "qlog": lambda: lib.q_log(args.q, need("--y", args.y)),
        "qexp": lambda: lib.q_exp(args.q, need("--x", args.x), cutoff=args.cutoff_mode),
        "qprod": lambda: lib.q_product(args.q, need("--x", args.x), need("--y", args.y)),
        "qratio": lambda: lib.q_ratio(args.q, need("--x", args.x), need("--y", args.y)),
        "tsallis": lambda: lib.tsallis_entropy(
            args.q, _parse_floats(need("--p", args.p), "--p")),
    }[args.fn]
    try:
        value = float(evaluate())
    except OverflowError:  # a result past the largest double: name the flags that gave it
        given = " ".join(f"--{flag} {getattr(args, flag)!r}"
                         for flag in ("q", "x", "y", "p")
                         if getattr(args, flag) is not None)
        raise _CliInputError(
            f"eval {args.fn} {given}: result is not a finite double") from None
    sys.stdout.write(repr(value) + "\n")
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .verify import run_suite

    report = run_suite(args.suite, args.seed)
    if args.format == "json":
        text = _json_text(report.to_json_dict())
    else:
        cases = report.cases
        text = _csv_text(("suite", "seed", "name", "max_rel_err", "tolerance", "pass"), [(
            report.suite, report.seed, [case.name for case in cases],
            [case.max_rel_err for case in cases], [case.tolerance for case in cases],
            [case.passed for case in cases])])
    _emit(text, args.out)
    return EXIT_OK if report.passed else EXIT_VERIFICATION_FAILED


def _cmd_fig(args) -> int:
    import numpy as np

    from .core import _check_finite_scalar

    # table builder and its default index, scales and (min, max, points) grid
    if args.which == "fig2":
        from .dynamics import FIG2_GRID as grid, FIG2_INDEX as q, FIG2_SCALES as scales
        from .dynamics import fig2_data as build
    else:
        from .qgaussian import FIG3_GRID as grid, FIG3_INDEX as q, FIG3_SCALES as scales
        from .qgaussian import fig3_data as build
    lo, hi, points = grid
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
    lo, hi = _check_finite_scalar("--grid-min", lo), _check_finite_scalar("--grid-max", hi)
    if not lo < hi:
        raise _CliInputError("--grid-min must be below --grid-max")
    if not math.isfinite(hi - lo):
        raise _CliInputError(f"--grid-max minus --grid-min must be a finite double, "
                             f"got {hi - lo!r}")
    try:
        table = build(scales, q, np.linspace(lo, hi, points))
        if args.format == "csv":
            text = _csv_text(table.columns, table.blocks)
        else:
            text = _json_table_text(table.columns, table.blocks, table.meta)
    except MemoryError:  # numpy's _ArrayMemoryError among them
        raise _CliInputError(f"--grid-points {points}: the table does not fit "
                             f"in memory") from None
    _emit(text, args.out)
    return EXIT_OK


def _read_values(path):
    values, header = [], False
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
            if not values and not header:
                header = True  # the first line neither blank nor a comment
                continue
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
        text = _csv_text(("x", "frequency", "p", "q", "c", "n", "slope", "intercept"), [(
            dist.xs, dist.frequencies, dist.probabilities, dist.q, dist.shift, dist.total,
            form.slope, form.intercept)])
    _emit(text, args.out)
    return EXIT_OK


_HANDLERS = {
    "eval": _cmd_eval,
    "verify": _cmd_verify,
    "fig": _cmd_fig,
    "canonicalize": _cmd_canonicalize,
}

_parser = functools.cache(build_parser)  # parse_args keeps no state on the parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        if (out := getattr(args, "out", None)) is not None:
            # before any work, fail where writing --out would; opening it then creates nothing
            folder = os.path.dirname(out) or os.curdir
            if os.path.isdir(out) or not (os.access(out, os.W_OK) if os.path.exists(out) else
                                          os.path.isdir(folder) and os.access(folder, os.W_OK)):
                _emit("", out)
        return _HANDLERS[args.command](args)
    except (_CliInputError, QDeformError, ValueError, OverflowError) as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
