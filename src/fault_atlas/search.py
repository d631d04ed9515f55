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
`topology._curve_id` numbers them.  Moves are tried vertical-first, then
horizontal, then wrapping; then by line and offset, the glued row edge before
the seam, which makes node counts reproducible.  The table is built line by
line in that order, so an edge's id is its rank: each cell keeps the curves
it touches and, with no sort, the edges whose other cell lies above it.

Every cell below the expanded cell i is covered, so only the dominoes whose
other cell lies above i are moves at i; they are built when the walk first
expands i.  Each move carries, for every other curve at its two cells, that
curve's whole tuple of crossing pairs, highest first as low bits are covered
first, built on first need and shared by all its moves.  Scanning the whole
tuple cuts the same children as scanning only the pairs above i would: a pair
whose lower cell is below i is covered already, and one whose lower cell is i
is covered in the child, so neither is ever free, and a curve with no pair
above i is still cut.  The unpruned search gets no prune data.

On a cylinder, torus or Moebius strip with a >= 2 the search keeps one root
move.  Every fault-free tiling crosses horizontal line 1, and only a
vertical domino (0, c)-(1, c) can do that, or on a Moebius strip a domino
(a-2, c)-(a-1, c) across line a-1, which lies on the same curve.  A shift
along the glued columns (on a Moebius strip a glide, which flips the rows at
each pass of the seam) maps that domino onto edge ("h", 1, 0), cells (0, 0)
and (1, 0), and the image is again a fault-free tiling.  That edge is the
first move at the root, since moves are tried vertical-first, so the root's
other moves hold no tiling that the first one lacks: they are never built, and
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

from itertools import zip_longest
from typing import Iterator, NamedTuple

from .errors import InvariantError, OracleRangeError
from .tiling import Tiling, tiling_from_edges, verify
from .topology import _MOBIUS, _RECTANGLE, _TORUS, BoardSpec, _curve_id, _seam_cells

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


def _sweep(board: BoardSpec) -> tuple[list[int], list[int]]:
    """(row_bit, col_bit): cell (r, c) is bit row_bit[r] + col_bit[c], and one list holds each line's first bit."""
    a, b, topo = board.a, board.b, board.topology
    rows = a > b  # sweep the long side: rows when a > b, else columns
    n, width = (a, b) if rows else (b, a)
    if topo is _TORUS or topo is _MOBIUS if rows else topo is not _RECTANGLE:
        # the swept axis is glued: visit its lines from both ends inward (0, n-1, 1, n-2, ...)
        lines = [width * (2 * k if 2 * k < n else 2 * (n - k) - 1) for k in range(n)]
    else:
        lines = [*range(0, n * width, width)]
    return (lines, [*range(b)]) if rows else ([*range(a)], lines)


class _Geometry:
    """The board as bit masks, built line by line; each cell's moves are built on request."""

    __slots__ = ("row_bit", "col_bit", "edges", "bits", "mask", "curve", "pairs", "below", "at", "entry", "full")

    def __init__(self, board: BoardSpec) -> None:
        a, b, topo = board.a, board.b, board.topology
        self.row_bit, self.col_bit = row_bit, col_bit = _sweep(board)
        # edges[eid] = (axis, line, offset, cells), line by line in the order moves are tried: vertical
        # dominoes, horizontal ones, then the wraps by offset, the glued row edge's before the seam's.
        edges = [("h", l, c, ((l - 1, c), (l, c))) for l in range(1, a) for c in range(b)]
        edges += [("v", l, r, ((r, l - 1), (r, l))) for l in range(1, b) for r in range(a)]
        rim = [("h", 0, c, ((a - 1, c), (0, c))) for c in range(b)] if topo is _TORUS and a > 1 else []
        seam = [("v", 0, r, s) for r in range(a) if (s := _seam_cells(board, r))] if topo is not _RECTANGLE else []
        self.edges = edges = edges + [edge for pair in zip_longest(rim, seam) for edge in pair if edge]
        ids = {axis: [_curve_id(board, axis, line) for line in range(n)] for axis, n in (("h", a), ("v", b))}
        self.bits = bits = []  # the (lower, upper) bits of each edge's cells
        self.mask = mask = []  # each edge's cells as a mask, the one int its move and its curve's pairs share
        self.curve = curve = []  # each edge's curve id
        self.pairs = pairs = [[] for _ in range(_curve_id(board, "v", b))]
        self.below = below = [[] for _ in range(a * b)]  # the ids of the edges whose lower cell is each cell
        self.at = at = [set() for _ in range(a * b)]  # the curves at each cell
        for eid, (axis, line, _offset, ((r1, c1), (r2, c2))) in enumerate(edges):
            x, y = row_bit[r1] + col_bit[c1], row_bit[r2] + col_bit[c2]
            x, y = (x, y) if x < y else (y, x)
            below[x].append(eid)
            bits.append((x, y))
            curve.append(k := ids[axis][line])
            at[x].add(k)
            at[y].add(k)
            mask.append(1 << x | 1 << y)
            pairs[k].append(mask[-1])
        self.entry: list[tuple | None] = [None] * len(pairs)  # (curve bit, crossing pairs) once a row needs it
        self.full = (1 << board.area) - 1

    def row(self, i: int, prune: bool) -> Iterator[tuple]:
        """Cell i's moves in id order, each built when asked for: (cells mask, curve bit, edge id, near)."""
        bits, mask, curve, at, entry = self.bits, self.mask, self.curve, self.at, self.entry
        for eid in self.below[i]:
            near = at[i] | at[bits[eid][1]] if prune else set()  # the curves at the domino's cells
            near.discard(k := curve[eid])
            for c in near:
                if entry[c] is None:
                    entry[c] = (1 << c, tuple(sorted(self.pairs[c], reverse=True)))
            yield mask[eid], 1 << k, eid, tuple([entry[c] for c in near])


def _traverse(board: BoardSpec, *, prune: bool) -> tuple:
    """Walk the (pruned) search tree up to the first fault-free tiling.

    Returns (whether one was found, nodes, pruned children, memo hits, the found tiling's edge keys).
    """
    if board.area % 2:
        return False, 0, 0, 0, []
    geo = _Geometry(board)
    if prune and not all(geo.pairs):  # a curve no domino crosses: no tiling is fault-free
        return False, 0, 0, 0, []
    full, root = geo.full, geo.row(0, prune)
    if board.topology is not _RECTANGLE and board.a > 1:
        # Some shift along the glued columns puts a domino across line 1 on edge ("h", 1, 0).
        root = [next(root)]  # the other root moves are never built
        if geo.edges[root[0][2]][:3] != ("h", 1, 0):
            raise InvariantError(f"the first move at the root of {board} is not edge ('h', 1, 0)")
    moves: list[list[tuple] | None] = [None] * board.area  # each cell's moves, built when the walk first expands it
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
    line_start, untried, nodes = True, iter(root), 1
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
                    if (row := moves[i]) is None:  # the walk expands cell i for the first time
                        row = moves[i] = [*geo.row(i, prune)]
                    stack.append((cover, crossed, line_start, untried, eid))
                    cover, crossed, line_start, untried = child, now, not i % width, iter(row)
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
