"""Workload inputs.  Everything here depends on the seed alone.

The seed permutes the order in which the sweeps visit boards and picks one
large `solve` board per topology from LARGE_SOLVES.  Boards whose operation
fails every time (the known defects) do not depend on the seed.
"""

from __future__ import annotations

import random

TOPOLOGIES = ("rectangle", "cylinder", "torus", "mobius")

# The whole range the exhaustive oracle accepts.
ORACLE_MAX_AREA = 48

# The seed picks, per topology, 63x64 or 64x63: both sides in 56..64, the
# same area, and tileable on every topology, so the pick moves census time
# and peak memory little.
LARGE_SOLVES = ((63, 64), (64, 63))

CENSUS_MAX = 20

# A small board outside the census range.  Set-up of census-warm truncates
# its cache entry; `solve` then exits 2 on every run because
# WitnessStore.load raises WitnessDecodeError instead of rebuilding.
CORRUPT_ENTRY = ("cylinder", 4, 22)

COUNTING_MAX_SIDE = {"rectangle": 24, "cylinder": 24, "torus": 24, "mobius": 20}

# Both return parity-space-too-large because of PARITY_CLASS_GUARD.
COUNTING_GUARDED = (("mobius", 40, 41), ("mobius", 64, 65))


def oracle_boards(seed: int) -> list[tuple[str, int, int]]:
    boards = [(t, a, b) for t in TOPOLOGIES for a in range(1, ORACLE_MAX_AREA + 1)
              for b in range(1, ORACLE_MAX_AREA + 1) if a * b <= ORACLE_MAX_AREA]
    random.Random(seed).shuffle(boards)
    return boards


def counting_boards(seed: int) -> list[tuple[str, int, int]]:
    boards = [(t, a, b) for t in TOPOLOGIES for a in range(1, COUNTING_MAX_SIDE[t] + 1)
              for b in range(1, COUNTING_MAX_SIDE[t] + 1)]
    random.Random(seed).shuffle(boards)
    return boards + list(COUNTING_GUARDED)


def large_solves(seed: int) -> dict[str, tuple[int, int]]:
    rng = random.Random(seed)
    return {t: rng.choice(LARGE_SOLVES) for t in TOPOLOGIES}


def census_ops(seed: int, warm: bool) -> list[tuple[str, str, int, int]]:
    """(command, topology, a, b) per CLI op; census ops carry a = b = CENSUS_MAX."""
    large = large_solves(seed)
    ops = []
    for t in TOPOLOGIES:
        ops.append(("census", t, CENSUS_MAX, CENSUS_MAX))
        ops.append(("solve", t, *large[t]))
    if warm:
        ops.append(("solve", *CORRUPT_ENTRY))
    return ops
