"""Exhaustive backtracking search: tiling existence, counting, fault-free search.

This is the ground-truth oracle at small sizes, so completeness is the prime
contract: `exhausted-none` is only ever returned after the whole (pruned)
space has been traversed, and the fault-curve pruning rule is provably safe:
a curve is tracked with the number of its crossing edges that are still
placeable (both endpoint cells uncovered); once an uncrossed curve's count
hits zero no completion can cross it, so the subtree contains no fault-free
tiling.

Backtracking expands the first uncovered cell in a column-major sweep and
tries its placements vertical-first, then horizontal, then wrapping, lower
line index first, which makes node counts reproducible.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

from .errors import InvariantError, OracleRangeError
from .tiling import Tiling, verify
from .topology import BoardSpec, _curve_id, placements

FOUND = "found"
EXHAUSTED = "exhausted-none"
INCONCLUSIVE = "inconclusive"

ORACLE_CEILING = 48


@dataclass(frozen=True)
class SearchBudget:
    """Limits on a single search; exceeding either yields `inconclusive`."""

    max_nodes: int | None = None
    max_millis: int | None = None


@dataclass(frozen=True)
class SearchOutcome:
    status: str  # found | exhausted-none | inconclusive
    witness: Tiling | None
    nodes: int


class _Geometry:
    """Flat integer-indexed view of a board for the hot search loop."""

    __slots__ = ("board", "n_cells", "edges", "nbrs", "incident", "scan_order",
                 "curve_caps", "n_curves")

    def __init__(self, board: BoardSpec) -> None:
        self.board = board
        a, b = board.a, board.b
        self.n_cells = a * b
        plcs = placements(board)
        self.n_curves = _curve_id(board, "v", b)  # one past the last curve id
        self.curve_caps = [0] * self.n_curves  # crossing edges per curve
        # edges[eid] = (cell_u, cell_v, curve_id); deterministic id order
        self.edges = []
        for p in plcs:
            (r1, c1), (r2, c2) = p.cells
            cv = _curve_id(board, p.edge.axis, p.edge.line)
            self.curve_caps[cv] += 1
            self.edges.append((r1 * b + c1, r2 * b + c2, cv))
        # tie-break groups: vertical dominoes, horizontal, then wraps
        def tie_key(i: int) -> tuple[int, int, int]:
            e = plcs[i].edge
            group = 2 if e.line == 0 else (0 if e.axis == "h" else 1)
            return (group, e.line, e.offset)

        order = sorted(range(len(plcs)), key=tie_key)
        self.nbrs = [[] for _ in range(self.n_cells)]
        self.incident = [[] for _ in range(self.n_cells)]
        for eid in order:
            u, v, _cv = self.edges[eid]
            self.nbrs[u].append((v, eid))
            self.nbrs[v].append((u, eid))
        for eid, (u, v, cv) in enumerate(self.edges):
            self.incident[u].append((eid, cv))
            self.incident[v].append((eid, cv))
        self.scan_order = [r * b + c for c in range(b) for r in range(a)]


@functools.lru_cache(maxsize=256)
def _geometry(board: BoardSpec) -> _Geometry:
    return _Geometry(board)


class _BudgetExceeded(Exception):
    pass


class _Searcher:
    def __init__(self, board: BoardSpec, budget: SearchBudget | None, *,
                 fault_free: bool, prune: bool, count_all: bool) -> None:
        self.geo = _geometry(board)
        self.board = board
        self.fault_free = fault_free
        self.prune = prune and fault_free
        self.count_all = count_all
        self.max_nodes = budget.max_nodes if budget else None
        self.deadline = None
        if budget and budget.max_millis is not None:
            self.deadline = time.monotonic() + budget.max_millis / 1000.0
        self.nodes = 0
        self.count = 0
        self.witness_edges: list[int] | None = None

    def run(self) -> str:
        geo = self.geo
        if self.board.area % 2:
            return EXHAUSTED
        covered = bytearray(geo.n_cells)
        avail_e = bytearray([1]) * len(geo.edges)
        avail_c = list(geo.curve_caps)
        crossed = [0] * geo.n_curves
        if self.prune and any(cap == 0 for cap in geo.curve_caps):
            return EXHAUSTED
        placed: list[int] = []
        try:
            done = self._rec(0, covered, avail_e, avail_c, crossed, placed)
        except _BudgetExceeded:
            return INCONCLUSIVE
        if done:
            return FOUND
        return EXHAUSTED

    def _rec(self, pos: int, covered: bytearray, avail_e: bytearray,
             avail_c: list[int], crossed: list[int], placed: list[int]) -> bool:
        geo = self.geo
        scan = geo.scan_order
        n = geo.n_cells
        while pos < n and covered[scan[pos]]:
            pos += 1
        if pos == n:
            if self.fault_free and any(crossed[c] == 0 for c in range(geo.n_curves)):
                return False
            if self.count_all:
                self.count += 1
                return False
            self.witness_edges = list(placed)
            return True
        self.nodes += 1
        if self.max_nodes is not None and self.nodes > self.max_nodes:
            raise _BudgetExceeded
        if self.deadline is not None and not (self.nodes & 1023) and time.monotonic() > self.deadline:
            raise _BudgetExceeded
        u = scan[pos]
        edges = geo.edges
        incident = geo.incident
        fault = self.fault_free
        pruning = self.prune
        for v, eid in geo.nbrs[u]:
            if covered[v]:
                continue
            covered[u] = 1
            covered[v] = 1
            undo: list[tuple[int, int]] = []
            dead = False
            if fault:
                cv = edges[eid][2]
                crossed[cv] += 1
                for cell in (u, v):
                    for e2, cv2 in incident[cell]:
                        if avail_e[e2]:
                            avail_e[e2] = 0
                            avail_c[cv2] -= 1
                            undo.append((e2, cv2))
                            if pruning and avail_c[cv2] == 0 and crossed[cv2] == 0:
                                dead = True
            if not dead:
                placed.append(eid)
                if self._rec(pos + 1, covered, avail_e, avail_c, crossed, placed):
                    return True
                placed.pop()
            if fault:
                crossed[edges[eid][2]] -= 1
                for e2, cv2 in undo:
                    avail_e[e2] = 1
                    avail_c[cv2] += 1
            covered[u] = 0
            covered[v] = 0
        return False

    def witness(self) -> Tiling | None:
        if self.witness_edges is None:
            return None
        plcs = placements(self.board)
        return Tiling(self.board, frozenset(plcs[eid] for eid in self.witness_edges))


def find_tiling(board: BoardSpec, budget: SearchBudget | None = None) -> SearchOutcome:
    """Search for any perfect matching; exhausted-none is definitive."""
    s = _Searcher(board, budget, fault_free=False, prune=False, count_all=False)
    status = s.run()
    witness = s.witness() if status == FOUND else None
    if witness is not None and not verify(board, witness).matching_valid:
        raise InvariantError(f"search returned an invalid tiling of {board}")
    return SearchOutcome(status, witness, s.nodes)


def count_tilings(board: BoardSpec, budget: SearchBudget | None = None) -> int | None:
    """Exact number of perfect matchings over edge-based placements.

    Parallel edges between the same cell pair count separately.  Returns
    None when the budget ran out (inconclusive).
    """
    s = _Searcher(board, budget, fault_free=False, prune=False, count_all=True)
    status = s.run()
    if status == INCONCLUSIVE:
        return None
    return s.count


def find_fault_free(board: BoardSpec, budget: SearchBudget | None = None, *,
                    prune: bool = True) -> SearchOutcome:
    """Search for a fault-free tiling; exhausted-none means none exists."""
    s = _Searcher(board, budget, fault_free=True, prune=prune, count_all=False)
    status = s.run()
    witness = s.witness() if status == FOUND else None
    if witness is not None and not verify(board, witness).fault_free:
        raise InvariantError(f"search returned a tiling of {board} that is not fault-free")
    return SearchOutcome(status, witness, s.nodes)


def fault_free_exists_oracle(board: BoardSpec, *, ceiling: int = ORACLE_CEILING) -> bool:
    """Definitive fault-free tileability by complete enumeration with pruning."""
    if board.area > ceiling:
        raise OracleRangeError(f"area {board.area} exceeds oracle ceiling {ceiling}")
    outcome = find_fault_free(board, None)
    return outcome.status == FOUND
