"""One round of a workload in a fresh interpreter, a set-up probe, or one traced CLI op.

    python3 perfbench/worker.py round RESULT WORKLOAD SEED TRACE ROUND_DIR TRACE_DIR [CACHE]
    python3 perfbench/worker.py setup RESULT WORKLOAD SEED ROUND_DIR
    python3 perfbench/worker.py cli SUMMARY SPANS CLI_ARG...

A round writes a JSON result: when set-up ended (`ready`, CLOCK_MONOTONIC),
the timed phase's wall time, each op's time, peak RSS, the ops attempted and
failed, the problems its checks found, and with TRACE 1 the span summaries.
Run from the repository root with PYTHONPATH=src; run.py does this.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

import procs
import reference
import workloads
from witness_check import WitnessRejected, check_document, check_text

SWEEPS = ("oracle-sweep", "counting-sweep")
GUARD_STATUS = "parity-space-too-large"


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- sweeps: every op in this process ------------------------------------------

def _sweep_setup(workload: str, seed: int, trace: bool):
    import fault_atlas as fa

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    specs = workloads.oracle_boards(seed) if workload == "oracle-sweep" else workloads.counting_boards(seed)
    boards = [fa.build_board(*spec) for spec in specs]
    return fa, tracer, specs, boards


def _sweep_op(fa, workload: str):
    if workload == "oracle-sweep":
        return fa.find_fault_free
    feasible, minimum = fa.counting_feasible, fa.min_required_tiles

    def counting_op(board):
        return feasible(board), (minimum(board) if board.area % 2 == 0 else None)

    return counting_op


def _tiling_doc(spec, tiling) -> dict:
    topology, a, b = spec
    return {"topology": topology, "a": a, "b": b,
            "dominoes": [{"edge": [p.edge.axis, p.edge.line, p.edge.offset],
                          "cells": [list(p.cells[0]), list(p.cells[1])]} for p in tiling.dominoes]}


def _check_oracle(fa, specs, boards, outcomes) -> tuple[int, list[str]]:
    failed, problems = 0, []
    for spec, board, outcome in zip(specs, boards, outcomes):
        if isinstance(outcome, Exception):
            failed += 1
            problems.append(f"{board}: {outcome!r}")
            continue
        tileable = fa.classify(board).tileable
        if outcome.status not in ("found", "exhausted-none"):
            problems.append(f"{board}: search returned {outcome.status}")
        elif (outcome.status == "found") != tileable:
            problems.append(f"{board}: search says {outcome.status}, classify says tileable={tileable}")
        if spec[0] == "rectangle" and tileable != reference.graham_tileable(spec[1], spec[2]):
            problems.append(f"{board}: classify disagrees with Graham's rule")
        if outcome.status == "found":
            try:
                check_document(_tiling_doc(spec, outcome.witness), *spec)
            except WitnessRejected as exc:
                problems.append(f"{board}: witness rejected: {exc}")
    return failed, problems


def _check_counting(fa, specs, boards, outcomes) -> tuple[int, list[str]]:
    failed, problems = 0, []
    for spec, board, outcome in zip(specs, boards, outcomes):
        guarded = isinstance(outcome, fa.ParitySpaceTooLargeError) or (
            not isinstance(outcome, Exception) and outcome[0].status == GUARD_STATUS)
        if guarded or isinstance(outcome, Exception):
            failed += 1
            if not (guarded and spec in workloads.COUNTING_GUARDED):
                problems.append(f"{board}: unexpected failure {outcome!r}")
            continue
        report, minimum = outcome
        tileable = fa.classify(board).tileable
        if report.feasible is False and tileable:
            problems.append(f"{board}: counting says infeasible but classify says tileable")
        if tileable and report.feasible is not True:
            problems.append(f"{board}: tileable but counting verdict is {report.feasible}")
        want = reference.PAPER_MIN_REQUIRED.get(spec)
        if want is not None and minimum != want:
            problems.append(f"{board}: min required {minimum}, the paper gives {want}")
    seen = set(specs)
    problems += [f"paper board {spec} not swept" for spec in reference.PAPER_MIN_REQUIRED if spec not in seen]
    return failed, problems


def sweep_round(workload: str, seed: int, trace: bool, spans_path: Path) -> dict:
    fa, tracer, specs, boards = _sweep_setup(workload, seed, trace)
    op = _sweep_op(fa, workload)
    ready = time.monotonic()
    outcomes, op_s = [], []
    if tracer:
        tracer.recording = True
    t0 = time.perf_counter()
    for board in boards:
        s = time.perf_counter()
        try:
            outcome = op(board)
        except Exception as exc:  # a failed op is counted and checked, not fatal
            outcome = exc
        op_s.append(time.perf_counter() - s)
        outcomes.append(outcome)
    wall = time.perf_counter() - t0
    result = {"ready": ready, "wall_s": wall, "op_s": op_s, "peak_rss_mb": _self_rss_mb()}
    if tracer:
        tracer.recording = False
        result["summaries"] = [tracer.summary()]
        tracer.dump(spans_path)
    check = _check_oracle if workload == "oracle-sweep" else _check_counting
    failed, problems = check(fa, specs, boards, outcomes)
    result.update(attempted=len(boards), failed=failed, problems=problems)
    return result


# -- census: every op a fresh `fault-atlas` process -----------------------------

def cli_args(command: str, topology: str, a: int, b: int, cache: Path) -> list[str]:
    if command == "census":
        return ["census", "--topology", topology, "--max", str(a), "--witnesses", str(cache),
                "--witness-limit", str(a)]
    return ["solve", "--topology", topology, "--a", str(a), "--b", str(b), "--witnesses", str(cache)]


def cache_name(topology: str, a: int, b: int) -> str:
    return f"{topology}_{a}x{b}.json"


def file_hashes(directory: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(directory.iterdir())}


def census_round(seed: int, warm: bool, trace: bool, round_dir: Path, cache: Path,
                 spans_prefix: str, snapshot: dict[str, str] | None = None) -> dict:
    """Run the census ops against `cache`; cold rounds start from an empty directory."""
    ops = workloads.census_ops(seed, warm)
    round_dir.mkdir(parents=True, exist_ok=True)
    ready = time.monotonic()
    runs = []
    t0 = time.perf_counter()
    for i, op in enumerate(ops):
        argv = cli_args(*op, cache)
        if trace:
            cmd = procs.python(str(procs.WORKER), "cli", str(round_dir / f"op{i}.summary.json"),
                               f"{spans_prefix}-op{i}.spans", *argv)
        else:
            cmd = procs.python("-c", procs.CLI_ENTRY, *argv)
        runs.append(procs.spawn(cmd, round_dir / f"op{i}.out", round_dir / f"op{i}.err"))
    wall = time.perf_counter() - t0
    op_s = [run.wall_s for run in runs]
    result = {"ready": ready, "wall_s": wall, "op_s": op_s,
              "peak_rss_mb": max(run.peak_rss_mb for run in runs)}
    if trace:
        summaries = [json.loads((round_dir / f"op{i}.summary.json").read_text()) for i in range(len(ops))]
        # Reducing and writing spans after the command is not part of the op.
        post = [s.pop("post_s") for s in summaries]
        result.update(summaries=summaries, wall_s=wall - sum(post),
                      op_s=[t - p for t, p in zip(op_s, post)])
    failed, problems = _check_census(ops, runs, round_dir, cache, warm, snapshot)
    result.update(attempted=len(ops), failed=failed, problems=problems)
    return result


def _check_census(ops, runs, round_dir: Path, cache: Path, warm: bool, snapshot) -> tuple[int, list[str]]:
    failed, problems = 0, []
    for i, ((command, topology, a, b), run) in enumerate(zip(ops, runs)):
        label = f"{command} {topology} {a}x{b}"
        out = (round_dir / f"op{i}.out").read_text(encoding="utf-8")
        corrupt = warm and (topology, a, b) == workloads.CORRUPT_ENTRY
        if run.code != 0:
            failed += 1
            if not (corrupt and run.code == 2):
                err = (round_dir / f"op{i}.err").read_text(encoding="utf-8").strip()[-300:]
                problems.append(f"{label}: exit {run.code}: {err}")
            continue
        if command == "census":
            if out != reference.chart_text(topology, a):
                problems.append(f"{label}: chart differs from the reference")
            continue
        try:
            check_text(out, topology, a, b)
        except WitnessRejected as exc:
            problems.append(f"{label}: printed witness rejected: {exc}")
        cached = cache / cache_name(topology, a, b)
        if not cached.is_file() or cached.read_text(encoding="utf-8") != out:
            problems.append(f"{label}: cache entry missing or differs from the printed witness")
    if warm:
        corrupt_name = cache_name(*workloads.CORRUPT_ENTRY)
        now = file_hashes(cache)
        if set(now) != set(snapshot):
            problems.append(f"warm run changed the cache listing: {sorted(set(now) ^ set(snapshot))[:5]}")
        changed = [n for n in snapshot if n != corrupt_name and now.get(n) != snapshot[n]]
        if changed:
            problems.append(f"warm run changed valid cache files: {changed[:5]}")
    else:
        problems += check_cache(cache, ops)
    return failed, problems


def check_cache(cache: Path, ops) -> list[str]:
    """Every X cell within the limit and every solved board has one file, and each passes the checker."""
    expected = {}
    for command, topology, a, b in ops:
        if command == "census":
            for x in reference.x_cells(reference.chart_text(topology, a)):
                expected[cache_name(topology, *x)] = (topology, *x)
        else:
            expected[cache_name(topology, a, b)] = (topology, a, b)
    present = set(os.listdir(cache)) if cache.is_dir() else set()
    problems = []
    if present != set(expected):
        problems.append(f"{len(present)} witness files, expected {len(expected)}; "
                        f"differing: {sorted(present ^ set(expected))[:5]}")
    for name in sorted(present & set(expected)):
        try:
            check_text((cache / name).read_text(encoding="utf-8"), *expected[name])
        except WitnessRejected as exc:
            problems.append(f"{name}: {exc}")
    return problems


# -- traced CLI op ------------------------------------------------------------

def traced_cli(summary_path: str, spans_path: str, argv: list[str]) -> int:
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    main = sys.modules["fault_atlas.cli"].main
    tracer.recording = True
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.recording = False
    sys.stdout.flush()
    t0 = time.perf_counter()
    summary = tracer.summary()
    tracer.dump(spans_path)
    summary["post_s"] = time.perf_counter() - t0
    Path(summary_path).write_text(json.dumps(summary), encoding="utf-8")
    return code


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "cli":
        return traced_cli(argv[1], argv[2], argv[3:])
    out, workload, seed = Path(argv[1]), argv[2], int(argv[3])
    if mode == "setup":
        round_dir = Path(argv[4])
        if workload in SWEEPS:
            _sweep_setup(workload, seed, trace=False)
        else:
            round_dir.mkdir(parents=True, exist_ok=True)
            workloads.census_ops(seed, workload == "census-warm")
        result = {"ready": time.monotonic()}
    else:
        trace, round_dir, trace_dir = argv[4] == "1", Path(argv[5]), Path(argv[6])
        spans_prefix = str(trace_dir / round_dir.name)
        if workload in SWEEPS:
            result = sweep_round(workload, seed, trace, Path(spans_prefix + ".spans"))
        elif workload == "census-cold":
            result = census_round(seed, False, trace, round_dir, round_dir / "witnesses", spans_prefix)
        else:
            cache = Path(argv[7])
            snapshot = json.loads((cache.parent / "snapshot.json").read_text(encoding="utf-8"))
            result = census_round(seed, True, trace, round_dir, cache, spans_prefix, snapshot)
    out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
