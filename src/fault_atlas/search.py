"""Exhaustive backtracking search for a fault-free tiling.

This is the ground-truth oracle at small sizes, so completeness is the prime
contract: a search always runs to completion and ends `found` or
`exhausted-none`, so `exhausted-none` means the whole (pruned) space was
traversed.  The fault-curve pruning rule is provably safe: a child is cut
when a curve next to the domino just placed is uncrossed and has no free
crossing pair (no crossing edge with both cells uncovered).
Cells are only ever covered deeper in the tree, so no completion can cross
that curve and the subtree contains no fault-free tiling.

The state is two integers, so nothing is undone.  The walk keeps its open
nodes on an explicit stack, so no recursion limit bounds its depth.  Bit i of
the cover mask is the i-th cell of the sweep, so the cell to expand is the
lowest zero bit.  The sweep runs along the board's long side: row by row when
a > b, else column by column, the cells of each line in order.  A glued
swept axis (rows on a torus or Moebius strip, columns on every wrapped board)
is visited from both ends inward (0, n-1, 1, n-2, ...), so glued lines are
neighbours and the two cells of every domino lie within 2*min(a, b) bits of
each other.  The frontier stays short, so fault curves close, and prunes
fire, early.  Bit k of the crossed mask is fault curve k, numbered as
`topology._curve_id` numbers them.  A cell's placements are tried
vertical-first, then horizontal, then wrapping; then by line, offset and
edge id, which makes node counts reproducible.

Every cell below the expanded cell i is covered, so only the dominoes whose
other cell lies above i are moves at i.  Each move carries, for every other
curve at its two cells, that curve's whole tuple of crossing pairs, one tuple
per curve shared by all its moves.  Scanning the whole tuple cuts the same
children as scanning only the pairs above i would: a pair whose lower cell is
below i is covered already, and one whose lower cell is i is covered in the
child, so neither is ever free, and a curve with no pair above i is still
cut.  The unpruned reference search gets empty prune data.

On a cylinder, torus or Moebius strip with a >= 2 the search keeps one root
move.  Every fault-free tiling crosses horizontal line 1, and only a
vertical domino (0, c)-(1, c) can do that, or on a Moebius strip a domino
(a-2, c)-(a-1, c) across line a-1, which lies on the same curve.  A shift
along the glued columns (on a Moebius strip a glide, which flips the rows at
each pass of the seam) maps that domino onto edge ("h", 1, 0), cells (0, 0)
and (1, 0), and the image is again a fault-free tiling.  That edge is the
first move at the root, since moves are tried vertical-first, so the root's
other moves hold no tiling that the first one lacks: they are dropped, and
the first witness stays the same.  A rectangle has no such shift, so it
keeps every root move.

Which completions a node has depends only on its cover, and a completion
succeeds exactly when it crosses every curve the node has not crossed yet.
So if the state (cover, m) failed, every (cover, c) with c a subset of m
fails too.  The search remembers the states it has seen fail in a
failed-state memo: a dict from cover to the crossed masks that failed with
it.  It checks the memo only at nodes whose lowest free cell i starts a
swept line (i % min(a, b) == 0), and stores a state there when its subtree
fails; a memo at every node held 29,411 keys on torus 7'x6'.  A state whose
crossed mask is a subset of a stored one is a hit: its subtree is not
walked, and it is not counted as a node.  The memo is bounded: two
generations of at most MEMO_GENERATION (4,096) masks.  When the young
generation is full it becomes the old one, the previous old one is dropped,
and a new young one starts, so at most 8,192 masks are live, and both
generations are freed when the search returns.  A mask costs an int and a
tuple slot and, with its own cover, a dict entry and an int of `area` bits:
a full memo takes at most about 1.2 MiB at area 80 and 4.1 MiB at area
1,980.  On the boards to area 48 the largest memo, on torus 7'x6', peaks at
about 0.16 MiB.  Forgetting a state only means walking it again, in the same
DFS order, so eviction moves node counts, never a status or the first
witness.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InvariantError, OracleRangeError
from .tiling import Tiling, tiling_from_edges, verify
from .topology import _MOBIUS, _RECTANGLE, _TORUS, BoardSpec, _curve_id, _edges

FOUND = "found"
EXHAUSTED = "exhausted-none"

ORACLE_CEILING = 48
MEMO_GENERATION = 4096  # failed crossed masks per memo generation; two generations are kept


class SearchOutcome(NamedTuple):
    status: str  # found | exhausted-none: the search always runs to completion
    witness: Tiling | None
    nodes: int
    pruned: int = 0  # children cut by the fault-curve rule
    memo_hits: int = 0  # states found in the failed-state memo; a hit is not a node


class _Geometry:
    """The board as bit masks: per-curve crossing pairs, then per-cell moves."""

    __slots__ = ("row_bit", "col_bit", "edges", "bits", "curve", "pairs", "full")

    def __init__(self, board: BoardSpec) -> None:
        a, b, topo = board.a, board.b, board.topology
        # Sweep the long side: rows when a > b, else columns.  Cell (r, c) is bit
        # row_bit[r] + col_bit[c], and one of the two lists holds each swept line's first bit.
        rows = a > b
        n, width = (a, b) if rows else (b, a)
        if topo is _TORUS or topo is _MOBIUS if rows else topo is not _RECTANGLE:
            # the swept axis is glued: visit its lines from both ends inward (0, n-1, 1, n-2, ...)
            lines = [width * (2 * k if 2 * k < n else 2 * (n - k) - 1) for k in range(n)]
        else:
            lines = [*range(0, n * width, width)]
        self.row_bit, self.col_bit = row_bit, col_bit = (lines, [*range(b)]) if rows else ([*range(a)], lines)
        # edges[eid] = (axis, line, offset, cells), the topology's records in edge id order
        self.edges = edges = tuple(_edges(board))
        self.curve = curve = [_curve_id(board, axis, line) for axis, line, _offset, _cells in edges]
        self.bits = bits = []  # the (lower, upper) bits of each edge's cells
        for _axis, _line, _offset, ((r1, c1), (r2, c2)) in edges:
            x, y = row_bit[r1] + col_bit[c1], row_bit[r2] + col_bit[c2]
            bits.append((x, y) if x < y else (y, x))
        self.pairs = pairs = [[] for _ in range(_curve_id(board, "v", board.b))]
        for (i, j), k in zip(bits, curve):
            pairs[k].append(1 << i | 1 << j)
        self.full = (1 << board.area) - 1

    def moves(self, prune: bool) -> list[list[tuple]]:
        """moves[i]: the placements whose lower cell is i, in tie-break order.

        A move is (cells mask, curve bit, edge id, near).  When pruning, `near`
        has (curve bit, crossing pairs) for every other curve that shares a cell
        with the domino; without pruning it is empty.
        """
        bits, curve = self.bits, self.curve
        moves: list[list[tuple]] = [[] for _ in range(self.full.bit_length())]
        at: list[set[int]] = [set() for _ in moves]  # the curves of the edges at each cell
        if prune:
            for (i, j), k in zip(bits, curve):
                at[i].add(k)
                at[j].add(k)
        # Highest pair first: the search covers low bits first, so free pairs are likelier among the high ones.
        entry = [(1 << c, tuple(sorted(pairs, reverse=True))) for c, pairs in enumerate(self.pairs)]
        # vertical dominoes, horizontal, then wraps; then line, offset, edge id
        for *_key, eid in sorted((2 if line == 0 else 0 if axis == "h" else 1, line, offset, eid)
                                for eid, (axis, line, offset, _cells) in enumerate(self.edges)):
            (i, j), k = bits[eid], curve[eid]
            moves[i].append((1 << i | 1 << j, 1 << k, eid, tuple(entry[c] for c in at[i] | at[j] if c != k)))
        return moves


def _traverse(board: BoardSpec, *, prune: bool) -> tuple:
    """Walk the (pruned) search tree up to the first fault-free tiling.

    Returns (whether one was found, nodes, pruned children, memo hits, the found tiling's edge keys).
    """
    if board.area % 2:
        return False, 0, 0, 0, []
    geo = _Geometry(board)
    if prune and not all(geo.pairs):  # a curve no domino crosses: no tiling is fault-free
        return False, 0, 0, 0, []
    moves, full = geo.moves(prune), geo.full
    if board.topology is not _RECTANGLE and board.a > 1:
        # Some shift along the glued columns puts a domino across line 1 on edge ("h", 1, 0).
        moves[0] = moves[0][:1]
        if geo.edges[moves[0][0][2]][:3] != ("h", 1, 0):
            raise InvariantError(f"the first move at the root of {board} is not edge ('h', 1, 0)")
    need = (1 << len(geo.pairs)) - 1  # a leaf must cross every curve
    width = min(board.a, board.b)
    pruned = hits = stored = 0
    young: dict[int, tuple[int, ...]] = {}  # cover -> crossed masks that failed with it at a line start
    old: dict[int, tuple[int, ...]] = {}  # the generation before young
    # The open node is (cover, crossed, line_start, untried moves); each open ancestor waits
    # on the stack as that tuple plus the edge id of the child it is in.  The root starts a
    # line and meets an empty memo.
    stack: list[tuple] = []
    cover = crossed = 0
    line_start, untried, nodes = True, iter(moves[0]), 1
    while True:
        for mask, bit, eid, near in untried:
            if mask & cover:
                continue
            child = cover | mask
            now = crossed | bit
            for k, pairs in near:
                if not now & k:
                    for p in pairs:
                        if not p & child:
                            break
                    else:  # curve k is uncrossed and has no free crossing pair
                        pruned += 1
                        break
            else:
                if child == full:
                    if not need & ~now:
                        path = [e for *_, e in stack] + [eid]  # the edge ids from the root down
                        return True, nodes, pruned, hits, [geo.edges[e][:3] for e in path]
                    continue
                i = (~child & (child + 1)).bit_length() - 1  # every cell below the lowest free one is covered
                for failed in young.get(child, ()) + old.get(child, ()) if not i % width else ():
                    if not now & ~failed:  # (child, failed) failed and now is a subset of failed
                        hits += 1
                        break
                else:  # descend into the child
                    nodes += 1
                    stack.append((cover, crossed, line_start, untried, eid))
                    cover, crossed, line_start, untried = child, now, not i % width, iter(moves[i])
                    break
        else:  # every move tried: the open node fails
            if line_start:
                if stored == MEMO_GENERATION:
                    old, young, stored = young, {}, 0
                young[cover] = young.get(cover, ()) + (crossed,)
                stored += 1
            if not stack:
                return False, nodes, pruned, hits, []
            cover, crossed, line_start, untried, _ = stack.pop()


def find_fault_free(board: BoardSpec, *, prune: bool = True) -> SearchOutcome:
    """Search for a fault-free tiling; exhausted-none means none exists."""
    found, nodes, pruned, hits, keys = _traverse(board, prune=prune)
    if not found:
        return SearchOutcome(EXHAUSTED, None, nodes, pruned, hits)
    witness = tiling_from_edges(board, keys)
    if not verify(board, witness).fault_free:
        raise InvariantError(f"search returned a tiling of {board} that fails verification")
    return SearchOutcome(FOUND, witness, nodes, pruned, hits)


def fault_free_exists_oracle(board: BoardSpec) -> bool:
    """Definitive fault-free tileability by complete enumeration with pruning."""
    if board.area > ORACLE_CEILING:
        raise OracleRangeError(f"area {board.area} exceeds oracle ceiling {ORACLE_CEILING}")
    return find_fault_free(board).status == FOUND
