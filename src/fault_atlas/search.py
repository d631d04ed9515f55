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
the seam, which makes node counts reproducible.

Set-up builds only the sweep maps and their inverse, O(a + b).  The one
board-wide check, that some curve has no crossing edge (then no tiling is
fault-free), reads line 0 alone: every internal grid line has an edge at each
offset, so only a glued line 0 (the row edge of a torus, the seam) can lack
one, and it has one at offset 0 if it has any.  A swept line is built when the
walk first expands one of its cells: the edges whose lower cell lies in it,
each with its mask and curve, and the curves at their cells.  Each line up to
the one that holds the upper cells of those edges is built with it, so a
cell's set of curves is complete before a move reads it.  Lines are built in
sweep order, and each line's edges in the order moves are tried, so every cell
lists its moves in that order with no sort.  A search refuted at its root
builds a line or two: the cost follows the cells the walk reaches, not the
size of the board.

Every cell below the expanded cell i is covered, so only the dominoes whose
other cell lies above i are moves at i; they are built when the walk first
expands i.  Each move carries, for every other curve at its two cells, that
curve's crossing pairs, highest first as low bits are covered first, in one
sequence that all its moves share.  A curve whose lines are all built when a
move first needs it gets a tuple.  Else it gets a list holding only a sentinel
0 until the line with its last pair is built, which fills the list in place.
The sentinel stands for the pairs not built yet: their cells lie beyond every
line the walk has reached, so they are free, as the sentinel, which meets no
cover, is.  A pair's mask is made once, for its move, and the list shares it.
Scanning the whole list cuts the same children as scanning only the pairs
above i would: a pair whose lower cell is below i is covered already, and one
whose lower cell is i is covered in the child, so neither is ever free, and a
curve with no pair above i is still cut.  The unpruned search gets no prune
data.

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

from collections import defaultdict
from typing import Iterator, NamedTuple

from .errors import InvariantError, OracleRangeError
from .tiling import Tiling, tiling_from_edges, verify
from .topology import _MOBIUS, _RECTANGLE, _TORUS, BoardSpec, _curve_id, _edge_cells, _fold_lines

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


def _uncrossable(board: BoardSpec) -> bool:
    """Whether some fault curve has no crossing edge, read from line 0 alone.

    Every internal grid line has a crossing edge at each offset, so only a glued line 0 (the row
    edge of a torus, the seam) can lack one, and it has one at offset 0 if it has any.
    """
    return any(0 in _fold_lines(board, axis) and _edge_cells(board, axis, 0, 0) is None for axis in "hv")


def _crossings(board: BoardSpec, k: int) -> int:
    """How many crossing edges fault curve k has: b per horizontal grid line, a per vertical one, but on line 0."""
    a, b, topo = board.a, board.b, board.topology
    horizontal = a if topo is _TORUS else a // 2 if topo is _MOBIUS else a - 1  # the curves before the vertical ones
    if k >= horizontal:  # vertical line k - horizontal, + 1 on a rectangle; line 0 is the seam
        if k > horizontal or topo is _RECTANGLE:
            return a
        return a if b > 1 else a // 2 if topo is _MOBIUS else 0  # offsets r and a-1-r name one segment if b = 1
    if topo is _TORUS:  # line k; line 0 is the glued row edge
        return b if k or a > 1 else 0
    return 2 * b if topo is _MOBIUS and 2 * k + 2 != a else b  # line k+1, with line a-k-1 on a Moebius strip


class _Geometry:
    """The board as bit masks, built one swept line at a time as the walk reaches it; each cell's moves on request.

    The sweep lists each line's cells in order, so the cells of a swept line are consecutive bits.
    """

    __slots__ = ("board", "row_bit", "col_bit", "rows", "width", "order", "ids", "end", "below", "at", "pairs",
                 "growing", "entry", "full")

    def __init__(self, board: BoardSpec) -> None:
        a, b = board.a, board.b
        self.board = board
        self.row_bit, self.col_bit = row_bit, col_bit = _sweep(board)
        # Rows are swept when each row's cells are consecutive bits: one cell each on a board one column wide.
        self.rows = rows = a > 1 and (b == 1 or col_bit[1] == 1)
        self.width = width = b if rows else a
        starts = row_bit if rows else col_bit
        self.order = sorted(range(len(starts)), key=starts.__getitem__)  # the grid row or column at each place
        self.ids = [_curve_id(board, "v" if rows else "h", line) for line in range(width)]  # curves along the sweep
        self.end = 0  # the first bit of the lines not yet built: the lines are built in sweep order
        # Per cell: (cells mask, curve, edge key, upper bit) of the edges whose lower cell it is; and its curves,
        # all of them once the lines up to its own are built.  Per curve: its built pairs, until a move needs them.
        self.below: defaultdict[int, list[tuple]] = defaultdict(list)
        self.at: defaultdict[int, set[int]] = defaultdict(set)
        self.pairs: defaultdict[int, list[int]] = defaultdict(list)
        self.growing: dict[int, tuple[list[int], int]] = {}  # curve -> (its list in the moves, its pair count)
        self.entry: list[tuple | None] = [None] * _curve_id(board, "v", b)  # (curve bit, crossing pairs) on need
        self.full = (1 << board.area) - 1

    def _build_line(self) -> None:
        """Build the next swept line: its cells' edges to higher cells, in move order, and the curves at their cells.

        A line's cells are consecutive bits in order, so an edge along the line joins bit j-1 to bit j of it
        (the glued row edge or the seam along it, bit 0 to the last), and an edge across to line o joins bit j
        of each.  An edge across belongs to the line swept first.
        """
        board, ids, below, at, pairs, growing = self.board, self.ids, self.below, self.at, self.pairs, self.growing
        a, b, topo, width, rows = board.a, board.b, board.topology, self.width, self.rows
        starts, n, across, along = (self.row_bit, a, "h", "v") if rows else (self.col_bit, b, "v", "h")
        lo = self.end
        g = self.order[lo // width]
        edges = [(lo + j - 1, lo + j, ids[j], (along, j, g)) for j in range(1, width)]  # (lower, upper, curve, key)
        # Grid line g joins line g to line g-1, grid line g+1 joins it to line g+1: an edge across joins bit j of each.
        cross = [(lo + j, starts[o] + j, k, (across, l, j)) for l, o in ((g, g - 1), (g + 1, g + 1))
                 if 0 < l < n and lo < starts[o] for k in [_curve_id(board, across, l)] for j in range(width)]
        edges = cross + edges if rows else edges + cross  # vertical dominoes before horizontal ones
        if topo is not _RECTANGLE:  # the wraps by offset: the glued row edge's (curve 0 on a torus), then the seam's
            if rows:
                o = a - 1 - g  # rows 0 and a-1 meet at the glued row edge; rows g and a-1-g at a Moebius seam
                if topo is _TORUS and g in (0, a - 1) and lo < starts[o]:
                    edges += [(lo + j, starts[o] + j, 0, ("h", 0, j)) for j in range(width)]
                if topo is not _MOBIUS or o == g:  # the seam joins row g's ends: bit 0 to the last
                    if b > 1:
                        edges.append((lo, lo + width - 1, ids[0], ("v", 0, g)))
                elif lo < starts[o]:  # offset g joins (g, b-1) to (o, 0), offset o joins (o, b-1) to (g, 0)
                    y = starts[o]
                    seam = sorted([(g, lo + width - 1, y), (o, lo, y + width - 1)])  # by offset
                    if b == 1:  # one column wide, the two offsets name one segment, kept at the lower one
                        del seam[1]
                    edges += [(x, z, ids[0], ("v", 0, r)) for r, x, z in seam]
            else:
                if topo is _TORUS and a > 1:  # the glued row edge joins column g's ends: bit 0 to the last
                    edges.append((lo, lo + width - 1, ids[0], ("h", 0, g)))
                o = b - 1 - g  # the seam joins column b-1 to column 0, rows flipped on a Moebius strip
                if g in (0, b - 1) and lo < starts[o]:
                    y, k, flip = starts[o], _curve_id(board, "v", 0), topo is _MOBIUS
                    edges += [(lo + (a - 1 - r if flip and not g else r), y + (a - 1 - r if flip and g else r), k,
                               ("v", 0, r)) for r in range(a)]
        for x, y, k, key in edges:
            mask = (1 << y - x | 1) << x  # one big int made, not three
            below[x].append((mask, k, key, y))
            at[x].add(k)
            at[y].add(k)
            pairs[k].append(mask)
            if k in growing:  # a move carries the curve's list already: fill it in place with the curve's last pair
                grow, total = growing[k]
                if len(pairs[k]) == total:
                    del growing[k]
                    grow[:] = sorted(pairs.pop(k), reverse=True)
        self.end += width

    def _pairs(self, k: int) -> tuple[int, ...] | list[int]:
        """Curve k's crossing pairs as cell masks, highest first, once a move needs them.

        A tuple if all are built; else a list holding a free sentinel 0 until the last is, then all of them.
        """
        total = _crossings(self.board, k)
        if len(self.pairs[k]) == total:
            return tuple(sorted(self.pairs.pop(k), reverse=True))
        grow = [0]
        self.growing[k] = (grow, total)
        return grow

    def row(self, i: int, prune: bool) -> Iterator[tuple]:
        """Cell i's moves in the order they are tried, each made when asked for: (cells mask, curve bit, key, near)."""
        at, entry = self.at, self.entry
        while self.end <= i:
            self._build_line()
        for mask, k, key, y in self.below[i]:
            while self.end <= y:  # the curves at y are all known once y's line is built
                self._build_line()
            near = at[i] | at[y] if prune else set()  # the curves at the domino's cells
            near.discard(k)
            for c in near:
                if entry[c] is None:
                    entry[c] = (1 << c, self._pairs(c))
            yield mask, 1 << k, key, tuple([entry[c] for c in near])


def _traverse(board: BoardSpec, *, prune: bool) -> tuple:
    """Walk the (pruned) search tree up to the first fault-free tiling.

    Returns (whether one was found, nodes, pruned children, memo hits, the found tiling's edge keys).
    """
    if board.area % 2:
        return False, 0, 0, 0, []
    if prune and _uncrossable(board):  # a curve no domino crosses: no tiling is fault-free
        return False, 0, 0, 0, []
    geo = _Geometry(board)
    full, root = geo.full, geo.row(0, prune)
    if board.topology is not _RECTANGLE and board.a > 1:
        # Some shift along the glued columns puts a domino across line 1 on edge ("h", 1, 0).
        root = [next(root)]  # the other root moves are never built
        if root[0][2] != ("h", 1, 0):
            raise InvariantError(f"the first move at the root of {board} is not edge ('h', 1, 0)")
    moves: list[list[tuple] | None] = [None] * board.area  # each cell's moves, built when the walk first expands it
    need = (1 << len(geo.entry)) - 1  # a leaf must cross every curve
    width = min(board.a, board.b)
    pruned = hits = stored = 0
    young: dict[int, tuple[int, ...]] = {}  # cover -> crossed masks that failed with it at a line start
    old: dict[int, tuple[int, ...]] = {}  # the generation before young
    # The open node is (cover, crossed, line_start, untried moves); each open ancestor waits
    # on the stack as that tuple plus the edge key of the child it is in.  The root starts a
    # line and meets an empty memo.
    stack: list[tuple] = []
    cover = crossed = 0
    line_start, untried, nodes = True, iter(root), 1
    while True:
        for mask, bit, key, near in untried:
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
                        return True, nodes, pruned, hits, [e for *_, e in stack] + [key]  # root down
                    continue
                i = (child ^ (child + 1)).bit_length() - 1  # the lowest free cell: every cell below it is covered
                for failed in young.get(child, ()) + old.get(child, ()) if not i % width else ():
                    if not now & ~failed:  # (child, failed) failed and now is a subset of failed
                        hits += 1
                        break
                else:  # descend into the child
                    nodes += 1
                    if (row := moves[i]) is None:  # the walk expands cell i for the first time
                        row = moves[i] = [*geo.row(i, prune)]
                    stack.append((cover, crossed, line_start, untried, key))
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
