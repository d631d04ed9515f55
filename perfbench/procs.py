"""Child processes: spawn, wait, and read their exit code, wall time and peak RSS."""

from __future__ import annotations

import os
import signal
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
WORKER = Path(__file__).resolve().parent / "worker.py"

# What the `fault-atlas` console script runs.
CLI_ENTRY = "import sys; from fault_atlas.cli import main; sys.exit(main())"


@dataclass(frozen=True)
class Finished:
    code: int
    started: float  # time.monotonic() just before the spawn; CLOCK_MONOTONIC is shared by all processes
    wall_s: float
    peak_rss_mb: float


def child_env() -> dict[str, str]:
    """The environment of every child: this checkout's package first, no cache override."""
    env = dict(os.environ)
    env.pop("FAULT_ATLAS_CACHE", None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv: list[str], stdout: Path, stderr: Path, *, own_group: bool = False) -> Finished:
    """Run argv to completion with its output in files.

    With own_group the child leads a new process group, so that everything it
    starts is killed with it if the wait is interrupted.
    """
    actions = [(os.POSIX_SPAWN_OPEN, fd, str(path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
               for fd, path in ((1, stdout), (2, stderr))]
    extra = {"setpgroup": 0} if own_group else {}
    started = time.monotonic()
    pid = os.posix_spawn(argv[0], argv, child_env(), file_actions=actions, **extra)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        (os.killpg if own_group else os.kill)(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    wall = time.monotonic() - started
    return Finished(os.waitstatus_to_exitcode(status), started, wall, usage.ru_maxrss / 1024)


def python(*args: str) -> list[str]:
    return [sys.executable, *args]
