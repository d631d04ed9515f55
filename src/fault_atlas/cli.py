"""Command-line surface: classify, solve, verify, expand, bound, census, render.

Exit codes are a stable scripting contract: 0 success, 1 usage error,
2 invalid input or I/O failure, 3 witness verification failure.  A board
whose area exceeds MAX_AREA is invalid input for every command but plain
classify, which is closed-form.  A module that only some commands use
(counting, render, charts, the expansion step) is imported by those
commands when they run.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .classify import classify
from .errors import (
    ExpansionFailedError,
    FaultAtlasError,
    WitnessDecodeError,
    WitnessUnavailableError,
)
from .tiling import DOCUMENT_BYTES_PER_DOMINO, decode, encode, verify
from .topology import Topology, build_board
from .witnesses import _witness_keys, _witness_text, default_store, witness

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_VERIFY = 3

MAX_CENSUS = 64
# Boards up to 512x512: work and memory per command grow with the area.
MAX_AREA = 1 << 18
# A witness file is read up to the bytes a document of the largest such board may take (64 MiB).
MAX_WITNESS_BYTES = DOCUMENT_BYTES_PER_DOMINO * (MAX_AREA // 2)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


class _CliError(Exception):
    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


def _board(args: argparse.Namespace):
    return build_board(args.topology, args.a, args.b)


def _within_ceiling(board):
    if board.area > MAX_AREA:
        raise _CliError(EXIT_INVALID,
                        f"{board} has area {board.area}, above the ceiling of {MAX_AREA} cells")
    return board


def _write_out(text: str, out: "str | None") -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise _CliError(EXIT_INVALID, f"cannot write {out}: {exc}") from exc


def _read_witness(path: str):
    try:
        with open(path, "rb") as file:
            data = file.read(MAX_WITNESS_BYTES + 1)
    except OSError as exc:
        raise _CliError(EXIT_INVALID, f"cannot read {path}: {exc}") from exc
    if len(data) > MAX_WITNESS_BYTES:
        raise _CliError(EXIT_INVALID,
                        f"witness {path} is longer than the ceiling of {MAX_WITNESS_BYTES} bytes")
    try:
        tiling = decode(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise _CliError(EXIT_INVALID, f"malformed witness {path}: not UTF-8 text: {exc}") from exc
    except WitnessDecodeError as exc:
        raise _CliError(EXIT_INVALID, f"malformed witness {path}: {exc}") from exc
    _within_ceiling(tiling.board)
    return tiling


def _bound_text(board) -> str:
    from .counting import counting_feasible

    report = counting_feasible(board)
    if report.status == "odd-area":
        return f"min required n/a, capacity n/a, infeasible (odd area {board.area})\n"
    verdict = "feasible" if report.feasible else "infeasible"
    shown_min = report.min_required if report.min_required is not None else "n/a"
    lines = [f"min required {shown_min}, capacity {report.capacity}, {verdict}",
             f"parity classes examined: {report.parity_classes_examined}"]
    for lo, hi in report.reachable[:16]:
        lines.append(f"  reachable totals: {lo}..{hi} step 2")
    if len(report.reachable) > 16:
        lines.append(f"  ... {len(report.reachable) - 16} more ranges")
    return "\n".join(lines) + "\n"


def _cmd_classify(args: argparse.Namespace) -> int:
    board = _within_ceiling(_board(args)) if args.explain else _board(args)
    v = classify(board)
    state = "fault-free tileable" if v.tileable else "not fault-free tileable"
    print(f"{board}: {state} [family {v.family_id}]")
    if args.explain:
        sys.stdout.write(_bound_text(board))
    return EXIT_OK


def _cmd_bound(args: argparse.Namespace) -> int:
    board = _within_ceiling(_board(args))
    sys.stdout.write(_bound_text(board))
    return EXIT_OK


def _cmd_solve(args: argparse.Namespace) -> int:
    board = _within_ceiling(_board(args))
    v = classify(board)
    if not v.tileable:
        print(f"{board}: not fault-free tileable [family {v.family_id}]")
        return EXIT_OK
    store = default_store(args.witnesses)
    try:
        if args.format == "json":
            text = _witness_text(board, store)  # one encode, shared with the store
        else:
            from .render import ascii_render, svg_render

            text = (ascii_render if args.format == "ascii" else svg_render)(witness(board, store=store))
    except WitnessUnavailableError as exc:
        print(f"{board}: inconclusive ({exc})")
        return EXIT_OK
    _write_out(text, args.out)
    return EXIT_OK


def _print_report(board, report, file=None) -> None:
    print(f"board: {board}", file=file)
    print(f"matching valid: {report.matching_valid}", file=file)
    if report.uncovered_cells:
        print(f"uncovered cells: {list(report.uncovered_cells)}", file=file)
    if report.doubly_covered_cells:
        print(f"doubly covered cells: {list(report.doubly_covered_cells)}", file=file)
    print(f"uncrossed curves: {list(report.uncrossed_curves)}", file=file)
    print(f"fault-free: {report.fault_free}", file=file)


def _cmd_verify(args: argparse.Namespace) -> int:
    tiling = _read_witness(args.witness_file)
    report = verify(tiling.board, tiling)
    _print_report(tiling.board, report)
    return EXIT_OK if report.fault_free else EXIT_VERIFY


def _cmd_expand(args: argparse.Namespace) -> int:
    from .expansion import expand

    tiling = _read_witness(args.witness_file)
    board = tiling.board
    rows = 2 if args.axis == "rows" else 0  # the grown board has two more rows or two more columns
    _within_ceiling(build_board(board.topology, board.a + rows, board.b + 2 - rows))
    try:
        grown = expand(tiling, args.axis)
    except ValueError:  # argparse fixes the axis, so the input did not verify
        print("witness fails verification; cannot expand", file=sys.stderr)
        return EXIT_VERIFY
    except ExpansionFailedError as exc:
        raise _CliError(EXIT_INVALID, str(exc)) from exc
    _write_out(encode(grown), args.out)
    return EXIT_OK


def _cmd_census(args: argparse.Namespace) -> int:
    if args.max < 1 or args.max > MAX_CENSUS:
        raise _CliError(EXIT_INVALID, f"--max must be in 1..{MAX_CENSUS}")
    if args.witness_limit < 0:
        raise _CliError(EXIT_USAGE, f"--witness-limit must be >= 0, got {args.witness_limit}")
    from .charts import build_chart, chart_text

    chart = build_chart(args.topology, args.max)
    _write_out(chart_text(chart), args.out)
    # --witnesses enables generation; FAULT_ATLAS_CACHE only redirects it
    store = default_store(args.witnesses) if args.witnesses else None
    if store is not None:
        limit = args.witness_limit
        for a, row in enumerate(chart.cells[:limit], 1):
            for b, mark in enumerate(row[:limit], 1):
                if mark == "X":
                    board = build_board(chart.topology, a, b)
                    if store.load(board) is None:
                        _witness_keys(board, store)  # verified and saved; no Tiling is built
    return EXIT_OK


def _cmd_render(args: argparse.Namespace) -> int:
    from .render import ascii_render, svg_render

    tiling = _read_witness(args.witness_file)
    report = verify(tiling.board, tiling)
    if not report.fault_free:
        print("witness fails verification:", file=sys.stderr)
        _print_report(tiling.board, report, sys.stderr)
        return EXIT_VERIFY
    text = ascii_render(tiling) if args.format == "ascii" else svg_render(tiling)
    _write_out(text, args.out)
    return EXIT_OK


def _add_board_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--topology", required=True,
                   choices=[t.value for t in Topology])
    p.add_argument("--a", type=int, required=True, help="height (rows)")
    p.add_argument("--b", type=int, required=True, help="width / circumference (columns)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fault-atlas",
                     description="Fault-free domino tileability of rectangles, "
                                 "cylinders, tori, and Moebius strips.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="closed-form tileability verdict")
    _add_board_flags(p)
    p.add_argument("--explain", action="store_true", help="append the counting report")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("solve", help="produce a verified fault-free witness")
    _add_board_flags(p)
    p.add_argument("--format", choices=["json", "ascii", "svg"], default="json")
    p.add_argument("--out", default=None)
    p.add_argument("--witnesses", default=None, help="witness cache directory")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="check a witness file")
    p.add_argument("witness_file")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("expand", help="grow a witness by two rows or columns")
    p.add_argument("witness_file")
    p.add_argument("--axis", choices=["rows", "cols"], required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("bound", help="counting necessity report")
    _add_board_flags(p)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("census", help="regenerate an X/O tileability chart")
    p.add_argument("--topology", required=True, choices=[t.value for t in Topology])
    p.add_argument("--max", type=int, default=20)
    p.add_argument("--out", default=None)
    p.add_argument("--witnesses", default=None, help="also populate this witness cache")
    p.add_argument("--witness-limit", type=int, default=12,
                   help="cache witnesses for boards with a,b up to this size")
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("render", help="draw a witness as ascii or svg")
    p.add_argument("witness_file")
    p.add_argument("--format", choices=["ascii", "svg"], default="ascii")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_render)

    return parser


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"fault-atlas: {exc}", file=sys.stderr)
        return exc.code
    except FaultAtlasError as exc:
        print(f"fault-atlas: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:  # a witness cache that cannot be written
        print(f"fault-atlas: I/O failure: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
