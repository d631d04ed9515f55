"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately avoid the package's search engine and counting
pass: matchings are enumerated (and counted) by naive recursion over the
placement list, fold loci are traced by walking segments across the seam,
and profile bounds come from direct product enumeration against constraints
recomputed from first principles.  The counting pass is checked against an
explicit enumeration of the parity classes of the same ParitySystem (row
reduction over GF(2), then every combination of the kernel basis).  Expected
values frozen in the tests were produced by these oracles.
"""

from __future__ import annotations

import itertools
import os
from pathlib import Path
from typing import Iterator

import pytest

import fault_atlas
from fault_atlas import (
    BoardSpec,
    ParitySystem,
    Tiling,
    Topology,
    base_boards,
    build_board,
    build_parity_system,
    fault_curves,
    placements,
    verify,
    witness,
)
from fault_atlas.tiling import tiling_from_edges

ALL_TOPOLOGIES = tuple(Topology)

# Witness documents that are valid JSON but not a witness, with the decode error each raises.
_ONE_DOMINO = '{"topology": "rectangle", "a": 1, "b": 2, "dominoes": [%s]}'
MALFORMED_DOCUMENTS = [
    pytest.param("[1]", "must be a JSON object", id="not-an-object"),
    pytest.param('{"topology": "rectangle", "a": 1, "b": 2, "dominoes": {}}', "dominoes must be a list",
                 id="dominoes-not-a-list"),
    pytest.param(_ONE_DOMINO % "5", "malformed domino entry", id="entry-not-an-object"),
    pytest.param(_ONE_DOMINO % '{"edge": ["v", 1, 0], "cells": 5}', "malformed cells",
                 id="cells-not-a-list"),
    pytest.param(_ONE_DOMINO % '{"edge": ["v", 1, 0], "cells": [[0, 0]]}', "malformed cells",
                 id="one-cell"),
    pytest.param(_ONE_DOMINO % '{"edge": ["v", 1, 0], "cells": [[0, 0], [0, 1], [9, 9]]}',
                 "malformed cells", id="three-cells"),
]


def boards_upto(max_a: int, max_b: int | None = None, *, max_area: int | None = None,
                topologies=ALL_TOPOLOGIES) -> Iterator[BoardSpec]:
    max_b = max_a if max_b is None else max_b
    for topo in topologies:
        for a in range(1, max_a + 1):
            for b in range(1, max_b + 1):
                if max_area is not None and a * b > max_area:
                    continue
                yield build_board(topo, a, b)


def package_env() -> dict[str, str]:
    """The environment for a child interpreter, this checkout's package first on its path."""
    src = str(Path(fault_atlas.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def nested(depth, find, board):
    """find(board), called from about `depth` frames deeper than the caller."""
    return find(board) if depth == 0 else nested(depth - 1, find, board)


def brick_tiling(board: BoardSpec) -> Tiling:
    """An even-area board's tiling, built without a search: horizontal rows when b is even, else vertical columns."""
    if board.b % 2 == 0:
        keys = [("v", line, r) for line in range(1, board.b, 2) for r in range(board.a)]
    else:
        keys = [("h", line, c) for line in range(1, board.a, 2) for c in range(board.b)]
    return tiling_from_edges(board, keys)


def base_witnesses(topology: Topology) -> list[tuple[BoardSpec, Tiling]]:
    """(board, witness) for each expanding tileable family's base: its checked-in keys, a chain of length 0."""
    return [(board, witness(board)) for board in base_boards(topology)]


def enumerate_matchings(board: BoardSpec) -> Iterator[frozenset]:
    """All perfect matchings, by naive recursion over the placement list."""
    plcs = placements(board)
    order = [(r, c) for r in range(board.a) for c in range(board.b)]
    incident: dict[tuple[int, int], list] = {cell: [] for cell in order}
    for p in plcs:
        for cell in p.cells:
            incident[cell].append(p)
    covered: set = set()
    chosen: list = []

    def rec(i: int) -> Iterator[frozenset]:
        while i < len(order) and order[i] in covered:
            i += 1
        if i == len(order):
            yield frozenset(chosen)
            return
        cell = order[i]
        for p in incident[cell]:
            if any(c in covered for c in p.cells):
                continue
            covered.update(p.cells)
            chosen.append(p)
            yield from rec(i + 1)
            chosen.pop()
            covered.difference_update(p.cells)

    if board.area % 2 == 0:
        yield from rec(0)


def count_tilings(board: BoardSpec) -> int:
    """The number of perfect matchings; parallel edges between the same cell pair count separately."""
    return sum(1 for _ in enumerate_matchings(board))


def enumerate_fault_free(board: BoardSpec) -> Iterator[Tiling]:
    for matching in enumerate_matchings(board):
        tiling = Tiling(board, matching)
        if verify(board, tiling).fault_free:
            yield tiling


def walk_horizontal_locus(board: BoardSpec, start_line: int) -> set:
    """Trace the fold locus at a horizontal line rightwards around the board.

    Crossing the seam keeps the height on a cylinder or torus and flips it to
    a - line across a Moebius twist; the visited segments are exactly the
    crossing edges of one fault curve.
    """
    visited_states = set()
    line, col = start_line, 0
    segments = set()
    while (line, col) not in visited_states:
        visited_states.add((line, col))
        segments.add(("h", line, col))
        col += 1
        if col == board.b:
            col = 0
            if board.topology is Topology.MOBIUS:
                line = board.a - line
            elif board.topology is Topology.RECTANGLE:
                break
    return segments


# -- independent crossing-profile constraint model ---------------------------

def _edge_counts(board: BoardSpec):
    """Caps derived by literally counting the board's crossing edges."""
    x_cap: dict[int, int] = {}
    y_cap: dict[int, int] = {}
    u_cap: dict[frozenset, int] = {}
    s_cap = 0
    for p in placements(board):
        axis, line, off = p.edge.key()
        if axis == "h":
            x_cap[line] = x_cap.get(line, 0) + 1
        elif line == 0:
            s_cap += 1
            if board.topology is Topology.MOBIUS:
                pair = frozenset({off, board.a - 1 - off})
                u_cap[pair] = u_cap.get(pair, 0) + 1
        else:
            y_cap[line] = y_cap.get(line, 0) + 1
    return x_cap, y_cap, u_cap, s_cap


def _constraints_ok(board: BoardSpec, x: dict, y: dict, u: dict, s: int) -> bool:
    a, b, topo = board.a, board.b, board.topology

    def xval(line: int) -> int:
        if topo is Topology.TORUS:
            return x.get(line % a, 0)
        return x.get(line, 0) if 1 <= line <= a - 1 else 0

    for r in range(a):
        touches = xval(r) + xval(r + 1)
        if topo is Topology.MOBIUS and r != a - 1 - r:
            touches += u.get(frozenset({r, a - 1 - r}), 0)
        if (b - touches) % 2:
            return False
    wrap_total = sum(u.values()) if topo is Topology.MOBIUS else s
    for c in range(b):
        touches = 0
        for line in (c, c + 1):
            if 1 <= line <= b - 1:
                touches += y.get(line, 0)
            elif topo is not Topology.RECTANGLE:
                touches += wrap_total
        if (a - touches) % 2:
            return False
    if topo is Topology.MOBIUS and a % 2 == 0 and b % 2 == 0 and s % 2:
        return False
    for curve in fault_curves(board):
        if curve.axis == "horizontal":
            total = sum(xval(line) for line in curve.lines)
        elif curve.lines == {0}:
            total = wrap_total
        else:
            total = sum(y.get(line, 0) for line in curve.lines)
        if total < 1:
            return False
    return True


def brute_profile_totals(board: BoardSpec, *, limit: int = 600_000) -> set[int]:
    """Attainable totals over all admissible profiles, by product enumeration."""
    x_cap, y_cap, u_cap, s_cap = _edge_counts(board)
    x_lines = sorted(x_cap)
    y_lines = sorted(y_cap)
    u_pairs = sorted(u_cap, key=sorted)
    sizes = 1
    for cap in list(x_cap.values()) + list(y_cap.values()) + list(u_cap.values()):
        sizes *= cap + 1
    if board.topology in (Topology.CYLINDER, Topology.TORUS):
        sizes *= s_cap + 1
    if sizes > limit:
        raise ValueError(f"brute force too large for {board}: {sizes}")
    totals: set[int] = set()
    x_ranges = [range(x_cap[l] + 1) for l in x_lines]
    y_ranges = [range(y_cap[l] + 1) for l in y_lines]
    u_ranges = [range(u_cap[p] + 1) for p in u_pairs]
    s_range = range(s_cap + 1) if board.topology in (Topology.CYLINDER, Topology.TORUS) else [0]
    for xs in itertools.product(*x_ranges):
        x = dict(zip(x_lines, xs))
        for us in itertools.product(*u_ranges):
            u = dict(zip(u_pairs, us))
            for ys in itertools.product(*y_ranges):
                y = dict(zip(y_lines, ys))
                for s in s_range:
                    eff_s = sum(us) if board.topology is Topology.MOBIUS else s
                    if _constraints_ok(board, x, y, u, eff_s):
                        totals.add(sum(xs) + sum(ys) + sum(us) + (s if board.topology in (Topology.CYLINDER, Topology.TORUS) else 0))
    return totals


# -- parity classes by explicit enumeration -----------------------------------

def _solve_gf2(equations: tuple[tuple[int, int], ...], n_vars: int):
    """Row-reduce; returns (particular solution bitmask, kernel basis) or None."""
    pivots: list[tuple[int, int, int]] = []  # (pivot col, mask, rhs)
    for mask, rhs in equations:
        for col, pmask, prhs in pivots:
            if (mask >> col) & 1:
                mask ^= pmask
                rhs ^= prhs
        if mask == 0:
            if rhs:
                return None
            continue
        col = (mask & -mask).bit_length() - 1
        for i, (pcol, pmask, prhs) in enumerate(pivots):
            if (pmask >> col) & 1:
                pivots[i] = (pcol, pmask ^ mask, prhs ^ rhs)
        pivots.append((col, mask, rhs))
    pivot_cols = {col for col, _, _ in pivots}
    particular = 0
    for col, _mask, rhs in pivots:
        if rhs:
            particular |= 1 << col
    kernel = []
    for free in range(n_vars):
        if free in pivot_cols:
            continue
        vec = 1 << free
        for col, mask, _rhs in pivots:
            if (mask >> free) & 1:
                vec |= 1 << col
        kernel.append(vec)
    return particular, kernel


def parity_classes(system: ParitySystem) -> Iterator[tuple[int, ...]]:
    """Every parity assignment satisfying the system's GF(2) equations, each once."""
    n = len(system.variables)
    solved = _solve_gf2(system.equations, n)
    if solved is None:
        return
    particular, kernel = solved
    for pick in range(1 << len(kernel)):
        vec = particular
        for k, basis in enumerate(kernel):
            if (pick >> k) & 1:
                vec ^= basis
        yield tuple((vec >> i) & 1 for i in range(n))


def var_index(system: ParitySystem) -> dict[tuple[str, object], int]:
    """Each variable's index in the system, by its (kind, key)."""
    return {(v.kind, v.key): i for i, v in enumerate(system.variables)}


def sweep_order(system: ParitySystem) -> list[tuple[str, object]]:
    """The counting pass's variable order, (kind, key) each: rows, then the seam and the columns.

    On a Moebius strip each wrap pair {j, a-1-j} comes just before lines j+1
    and a-1-j, which keeps the pass a few state bits wide.
    """
    index = var_index(system)
    a, b = system.board.a, system.board.b
    if system.board.topology is Topology.MOBIUS:
        rows = [key for j in range((a + 1) // 2)
                for key in (("u", frozenset({j, a - 1 - j})), ("x", j + 1), ("x", a - 1 - j))]
    else:
        rows = [("x", line) for line in range(a)]
    cols = [("s", None)] + [("y", line) for line in range(1, b)]
    return list(dict.fromkeys(key for key in rows + cols if key in index))


def _class_stats(system: ParitySystem, parities: tuple[int, ...]) -> tuple[int, int] | None:
    """(min total, max total) for one parity class, or None if inadmissible."""
    vmin = []
    vmax = []
    for var, p in zip(system.variables, parities):
        if p > var.cap:
            return None
        vmin.append(p)
        vmax.append(var.cap - ((var.cap - p) % 2))
    total_min = sum(vmin)
    for group in system.coverage_groups:
        if sum(vmin[i] for i in group) == 0:
            if any(vmax[i] >= 2 for i in group):
                total_min += 2
            else:
                return None
    return total_min, sum(vmax)


def enumerated_report(board: BoardSpec):
    """(min required, feasible, classes, distinct ranges) by visiting every parity class."""
    system = build_parity_system(board)
    classes = 0
    ranges = set()
    for parities in parity_classes(system):
        classes += 1
        stats = _class_stats(system, parities)
        if stats is not None:
            ranges.add(stats)
    capacity = board.capacity
    feasible = any(lo <= capacity <= hi and (capacity - lo) % 2 == 0 for lo, hi in ranges)
    return min((lo for lo, _ in ranges), default=None), feasible, classes, ranges


def step2_runs(totals: set[int]) -> tuple[tuple[int, int], ...]:
    """The maximal runs lo, lo+2, ..., hi of a set of totals, as (lo, hi) sorted."""
    runs = []
    for lo in sorted(t for t in totals if t - 2 not in totals):
        hi = lo
        while hi + 2 in totals:
            hi += 2
        runs.append((lo, hi))
    return tuple(runs)


def run_totals(runs) -> set[int]:
    """Every total in (lo, hi) step-2 runs."""
    return {t for lo, hi in runs for t in range(lo, hi + 1, 2)}


def measure_profile(board: BoardSpec, tiling: Tiling):
    """Raw crossing counts read straight off a tiling's placements."""
    x: dict[int, int] = {}
    y: dict[int, int] = {}
    u: dict[frozenset, int] = {}
    s = 0
    for p in tiling.dominoes:
        axis, line, off = p.edge.key()
        if axis == "h":
            x[line] = x.get(line, 0) + 1
        elif line == 0:
            s += 1
            if board.topology is Topology.MOBIUS:
                pair = frozenset({off, board.a - 1 - off})
                u[pair] = u.get(pair, 0) + 1
        else:
            y[line] = y.get(line, 0) + 1
    return x, y, u, s


def system_violations(board: BoardSpec, tiling: Tiling) -> list[str]:
    """Each constraint of the package's ParitySystem that the tiling's measured profile breaks."""
    system = build_parity_system(board)
    x, y, u, s = measure_profile(board, tiling)
    values = {**{("x", line): n for line, n in x.items()}, **{("y", line): n for line, n in y.items()},
              **{("u", pair): n for pair, n in u.items()}}  # u is empty off a Moebius strip
    if board.topology in (Topology.CYLINDER, Topology.TORUS):
        values["s", None] = s
    index = var_index(system)
    out = [f"unknown variable {key}" for key in values if key not in index]
    vec = [values.get((var.kind, var.key), 0) for var in system.variables]
    out += [f"{var.kind} {var.key} = {n} outside [0, {var.cap}]"
            for var, n in zip(system.variables, vec) if not 0 <= n <= var.cap]
    odd = sum((n & 1) << i for i, n in enumerate(vec))
    out += [f"parity equation violated (mask {mask:#x}, rhs {rhs})"
            for mask, rhs in system.equations if (mask & odd).bit_count() & 1 != rhs]
    out += [f"fault curve uncovered (variables {group})"
            for group in system.coverage_groups if sum(vec[i] for i in group) < 1]
    if sum(vec) != board.capacity:
        out.append(f"total {sum(vec)} != capacity {board.capacity}")
    return out


@pytest.fixture(scope="session")
def witness_5x6() -> Tiling:
    from fault_atlas import find_fault_free

    board = build_board("rectangle", 5, 6)
    outcome = find_fault_free(board)
    assert outcome.status == "found"
    return outcome.witness


@pytest.fixture
def failing_chains(monkeypatch):
    """Every expansion fails."""
    import fault_atlas.witnesses as w
    from fault_atlas import ExpansionFailedError

    def fail(board, keys, axis):
        raise ExpansionFailedError(f"no cut path on {board}")

    w._chain_cut.cache_clear()  # a kept path would skip the search
    monkeypatch.setattr(w, "_cut_path", fail)
