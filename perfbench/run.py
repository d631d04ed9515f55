"""fault-atlas benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a fault-atlas checkout; it uses the package under
src/ and the golden charts under tests/golden, and keeps its scratch files
under .perfbench/.  Rounds of the workload run until S seconds have passed,
at least one; each round is a fresh interpreter (worker.py), and on the
census workloads every op is a fresh `fault-atlas` process.  With --trace 1
untraced and traced rounds alternate, and the traced ones give the per-layer
metrics.  The last line of standard output is one JSON object: correct,
attempted, failed and metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import procs
import tracer
import workloads
import worker
from witness_check import WitnessRejected, check_text

WORKLOADS = ("oracle-sweep", "census-cold", "census-warm", "counting-sweep")
SETUP_SAMPLES = 9
STARTUP_SAMPLES = 5
DEADLINE_S = 170


class BenchmarkError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _timeout(signum, frame):
    raise BenchmarkError(f"run exceeded {DEADLINE_S} s")


def _spawn_worker(mode: str, args, work_dir: Path, *rest: str) -> tuple[dict, procs.Finished]:
    out = work_dir / "result.json"
    argv = procs.python(str(procs.WORKER), mode, str(out), args.workload, str(args.seed), *rest)
    fin = procs.spawn(argv, work_dir / "worker.out", work_dir / "worker.err", own_group=True)
    if fin.code != 0:
        err = (work_dir / "worker.err").read_text(encoding="utf-8")[-2000:]
        raise BenchmarkError(f"worker {mode} exited {fin.code}:\n{err}")
    return json.loads(out.read_text(encoding="utf-8")), fin


def run_round(args, k: int, traced: bool, work: Path, trace_dir: Path, cache: Path | None) -> dict:
    round_dir = work / f"r{k}"
    round_dir.mkdir()
    rest = ["1" if traced else "0", str(round_dir), str(trace_dir)] + ([str(cache)] if cache else [])
    result, fin = _spawn_worker("round", args, round_dir, *rest)
    result["setup_s"] = result.pop("ready") - fin.started
    shutil.rmtree(round_dir)
    return result


def setup_probe(args, i: int, work: Path) -> float:
    probe_dir = work / f"probe{i}"
    probe_dir.mkdir()
    result, fin = _spawn_worker("setup", args, probe_dir, str(probe_dir / "round"))
    shutil.rmtree(probe_dir)
    return result["ready"] - fin.started


def fill_cache(seed: int, work: Path) -> tuple[Path, float, list[str]]:
    """census-warm set-up: a cold census, then one cache entry cut short as by a crash mid-write."""
    cache = work / "cache"
    fill_dir = work / "fill"
    result = worker.census_round(seed, False, False, fill_dir, cache, "")
    problems = list(result["problems"])
    topology, a, b = workloads.CORRUPT_ENTRY
    argv = procs.python("-c", procs.CLI_ENTRY, *worker.cli_args("solve", topology, a, b, cache))
    fin = procs.spawn(argv, fill_dir / "corrupt.out", fill_dir / "corrupt.err")
    entry = cache / worker.cache_name(topology, a, b)
    data = entry.read_bytes() if fin.code == 0 and entry.is_file() else b""
    try:
        check_text(data.decode("utf-8"), topology, a, b)
    except WitnessRejected as exc:
        problems.append(f"set-up solve {topology} {a}x{b} (exit {fin.code}): {exc}")
    entry.write_bytes(data[: len(data) // 2])
    (work / "snapshot.json").write_text(json.dumps(worker.file_hashes(cache)), encoding="utf-8")
    shutil.rmtree(fill_dir)
    return cache, result["wall_s"] + fin.wall_s, problems


def cli_startup_ms(work: Path) -> float:
    times = []
    for _ in range(STARTUP_SAMPLES):
        fin = procs.spawn(procs.python("-c", procs.CLI_ENTRY, "--version"), work / "v.out", work / "v.err")
        if fin.code != 0:
            raise BenchmarkError(f"fault-atlas --version exited {fin.code}")
        times.append(fin.wall_s * 1000)
    return statistics.median(times)


def op_tail(samples: list[float]) -> float:
    """The highest percentile with ten samples beyond it.

    A round of fewer than 40 ops has no tail worth the name, and the slowest
    of a few ops is mostly noise, so there the median stands in for it.
    """
    ordered = sorted(samples)
    return ordered[len(ordered) - 11] if len(ordered) >= 40 else statistics.median(ordered)


def end_to_end(rounds: list[dict], setup_s: float) -> dict[str, float]:
    med = statistics.median
    return {
        "setup_s": setup_s,
        "wall_s": med(r["wall_s"] for r in rounds),
        "op_p50_ms": med(med(r["op_s"]) * 1000 for r in rounds),
        "op_tail_ms": med(op_tail(r["op_s"]) * 1000 for r in rounds),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in rounds),
    }


def per_layer(plain: list[dict], traced: list[dict], startup_ms: float) -> dict[str, float]:
    med = statistics.median
    by_round = [tracer.layer_metrics(r["summaries"], r["wall_s"]) for r in traced]
    values = {name: med(m[name] for m in by_round) for name in by_round[0]}
    untraced_wall = med(r["wall_s"] for r in plain)
    traced_wall = med(r["wall_s"] for r in traced)
    values.update({
        "cli.startup_ms": startup_ms,
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_pct": 100 * (traced_wall / untraced_wall - 1),
    })
    return values


def run(args, spec: dict, work: Path, trace_dir: Path) -> dict:
    cache, fill_s, problems = None, 0.0, []
    if args.workload == "census-warm":
        cache, fill_s, problems = fill_cache(args.seed, work)
    rounds: list[tuple[bool, dict]] = []
    begin = time.monotonic()
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        rounds.append((traced, run_round(args, len(rounds), traced, work, trace_dir, cache)))
        if time.monotonic() - begin >= args.seconds and (len(rounds) >= 2 or not args.trace):
            break
    plain = [r for t, r in rounds if not t]
    for _, r in rounds:
        problems += r["problems"]
    if args.trace:
        values = per_layer(plain, [r for t, r in rounds if t], cli_startup_ms(work))
    else:
        setups = [r["setup_s"] for r in plain]
        setups += [setup_probe(args, i, work) for i in range(SETUP_SAMPLES - len(setups))]
        values = end_to_end(plain, fill_s + statistics.median(setups))
    # BENCHMARK.json names the metrics each mode prints, with their units.
    listed = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    for problem in problems[:20]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    return {"correct": not problems,
            "attempted": sum(r["attempted"] for _, r in rounds),
            "failed": sum(r["failed"] for _, r in rounds),
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    missing = [p for p in ("BENCHMARK.json", "src/fault_atlas/__init__.py", "tests/golden")
               if not (procs.ROOT / p).exists()]
    if missing:
        print(f"perfbench: run from the root of a fault-atlas checkout; missing {missing}", file=sys.stderr)
        return 2
    scratch = procs.ROOT / ".perfbench"
    work = scratch / f"{args.workload}-{os.getpid()}"
    trace_dir = scratch / "traces" / args.workload
    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(DEADLINE_S)
    try:
        work.mkdir(parents=True)
        if args.trace:
            shutil.rmtree(trace_dir, ignore_errors=True)
            trace_dir.mkdir(parents=True)
        spec = json.loads((procs.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        result = run(args, spec, work, trace_dir)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
