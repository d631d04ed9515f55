"""Exhaustive backtracking search: tiling existence, counting, fault-free search.

This is the ground-truth oracle at small sizes, so completeness is the prime
contract: a search always runs to completion and ends `found` or
`exhausted-none`, so `exhausted-none` means the whole (pruned) space was
traversed.  The fault-curve pruning rule is provably safe: a child is cut
when a curve next to the domino just placed is uncrossed and has no free
crossing pair (no crossing edge with both cells uncovered).
Cells are only ever covered deeper in the tree, so no completion can cross
that curve and the subtree contains no fault-free tiling.

The state is two integers passed by value, so nothing is undone.  Bit i of
the cover mask is the i-th cell of the column-major sweep (cell (r, c) is bit
c*a + r), so the cell to expand is the lowest zero bit.  Bit k of the crossed
mask is fault curve k, numbered as `topology._curve_id` numbers them.  A
cell's placements are tried vertical-first, then horizontal, then wrapping;
then by line, offset and edge id, which makes node counts reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvariantError, OracleRangeError
from .tiling import Tiling, verify
from .topology import BoardSpec, CrossingEdge, Placement, _curve_id, _edges

FOUND = "found"
EXHAUSTED = "exhausted-none"

ORACLE_CEILING = 48


@dataclass(frozen=True)
class SearchOutcome:
    status: str  # found | exhausted-none: the search always runs to completion
    witness: Tiling | None
    nodes: int
    pruned: int = 0  # children cut by the fault-curve rule


class _Geometry:
    """The board as bit masks: per-cell placements and per-curve crossing pairs."""

    __slots__ = ("edges", "moves", "pairs", "full")

    def __init__(self, board: BoardSpec) -> None:
        a = board.a
        # edges[eid] = (axis, line, offset, cells), the topology's records in edge id order
        self.edges = edges = tuple(_edges(board))
        curve = [_curve_id(board, axis, line) for axis, line, _offset, _cells in edges]
        bits = [(c1 * a + r1, c2 * a + r2) for *_key, ((r1, c1), (r2, c2)) in edges]
        pairs: list[list[int]] = [[] for _ in range(_curve_id(board, "v", board.b))]
        at: list[set[int]] = [set() for _ in range(board.area)]  # curves of the edges at each cell
        for eid, (i, j) in enumerate(bits):
            pairs[curve[eid]].append(1 << i | 1 << j)
            at[i].add(curve[eid])
            at[j].add(curve[eid])
        # the sweep covers low bits first, so free pairs are likelier among the high ones
        self.pairs = tuple(tuple(reversed(p)) for p in pairs)
        curves = [(1 << k, p) for k, p in enumerate(self.pairs)]
        # a placement: (cells mask, curve bit, edge id, the other curves of edges sharing a cell)
        plcs = [(1 << i | 1 << j, 1 << k, eid, tuple(curves[c] for c in at[i] | at[j] if c != k))
                for eid, ((i, j), k) in enumerate(zip(bits, curve))]
        # moves[i]: the placements covering cell i in tie-break order: vertical
        # dominoes, horizontal, then wraps; then line, offset, edge id
        moves: list[list[tuple]] = [[] for _ in range(board.area)]
        for *_key, eid in sorted((2 if line == 0 else 0 if axis == "h" else 1, line, offset, eid)
                                for eid, (axis, line, offset, _cells) in enumerate(edges)):
            i, j = bits[eid]
            moves[i].append(plcs[eid])
            moves[j].append(plcs[eid])
        self.moves = tuple(map(tuple, moves))
        self.full = (1 << board.area) - 1


class _Searcher:
    def __init__(self, board: BoardSpec, *, fault_free: bool, prune: bool, count_all: bool) -> None:
        self.board = board
        self.fault_free = fault_free
        self.prune = prune and fault_free
        self.count_all = count_all
        self.nodes = 0
        self.pruned = 0
        self.count = 0
        self.witness_edges: list[int] | None = None

    def run(self) -> bool:
        """Traverse the whole (pruned) space; True when a tiling was found."""
        if self.board.area % 2:
            return False
        geo = self.geo = _Geometry(self.board)
        if self.prune and not all(geo.pairs):
            return False
        self.all_crossed = (1 << len(geo.pairs)) - 1
        return self._rec(0, 0)

    def _rec(self, cover: int, crossed: int) -> bool:
        geo = self.geo
        if cover == geo.full:
            if self.fault_free and crossed != self.all_crossed:
                return False
            if self.count_all:
                self.count += 1
                return False
            self.witness_edges = []
            return True
        self.nodes += 1
        pruning = self.prune
        first_free = (~cover & (cover + 1)).bit_length() - 1  # the lowest zero bit
        for mask, bit, eid, near in geo.moves[first_free]:
            if mask & cover:
                continue
            child = cover | mask
            now = crossed | bit
            if pruning:
                dead = False
                for k, pairs in near:
                    if not now & k:
                        for p in pairs:
                            if not p & child:
                                break
                        else:  # curve k is uncrossed and has no free crossing pair
                            dead = True
                            break
                if dead:
                    self.pruned += 1
                    continue
            if self._rec(child, now):
                self.witness_edges.append(eid)  # the path is collected as the found branch unwinds
                return True
        return False

    def witness(self) -> Tiling:
        records = (self.geo.edges[eid] for eid in self.witness_edges)
        return Tiling(self.board, frozenset(Placement(CrossingEdge(axis, line, offset), cells)
                                            for axis, line, offset, cells in records))


def _search(board: BoardSpec, *, fault_free: bool, prune: bool) -> SearchOutcome:
    """Run one search and re-verify its witness in the search's own mode."""
    s = _Searcher(board, fault_free=fault_free, prune=prune, count_all=False)
    if not s.run():
        return SearchOutcome(EXHAUSTED, None, s.nodes, s.pruned)
    witness = s.witness()
    report = verify(board, witness)
    if not (report.fault_free if fault_free else report.matching_valid):
        raise InvariantError(f"search returned a tiling of {board} that fails verification")
    return SearchOutcome(FOUND, witness, s.nodes, s.pruned)


def find_tiling(board: BoardSpec) -> SearchOutcome:
    """Search for any perfect matching; exhausted-none is definitive."""
    return _search(board, fault_free=False, prune=False)


def count_tilings(board: BoardSpec) -> int:
    """Exact number of perfect matchings over edge-based placements.

    Parallel edges between the same cell pair count separately.
    """
    s = _Searcher(board, fault_free=False, prune=False, count_all=True)
    s.run()
    return s.count


def find_fault_free(board: BoardSpec, *, prune: bool = True) -> SearchOutcome:
    """Search for a fault-free tiling; exhausted-none means none exists."""
    return _search(board, fault_free=True, prune=prune)


def fault_free_exists_oracle(board: BoardSpec, *, ceiling: int = ORACLE_CEILING) -> bool:
    """Definitive fault-free tileability by complete enumeration with pruning."""
    if board.area > ceiling:
        raise OracleRangeError(f"area {board.area} exceeds oracle ceiling {ceiling}")
    return find_fault_free(board).status == FOUND
