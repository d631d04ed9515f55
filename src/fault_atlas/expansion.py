"""Grow a fault-free tiling by two rows or two columns via band insertion.

The construction cuts the board along a transversal path that follows tile
boundaries (it never crosses a placed domino's interior segment), shifts one
side by two, and fills the freed width-2 band with parallel dominoes, one per
path step, each offset to follow the path.  Candidate paths are enumerated
depth-first; a path is accepted only if the rebuilt tiling re-verifies
fault-free on the enlarged board, so the search never has to trust the
construction argument.  The search reads and writes edge keys (axis, line,
offset) only; `expand` turns them into placements once, at the end.

One accepted path serves any number of bands: growing by k double rows or
columns shifts the far side by 2k and lays k parallel bands along the same
path, band j across line pos + 1 + 2j.  The bands are translates of one
another, so k bands at one cut are the tiling that k single expansions
build, and a chain costs one search per axis.  The search checks its leaf
with one band; the caller re-verifies the k-band result.

Row and column insertion are one search along two axes.  A row-insertion
path takes one step per column, each at a height 0..a; a column-insertion
path takes one step per row, each at an offset 0..b.  The topology decides
two gluings, each absent, plain or twisted: whether positions 0 and the last
position meet (rows: torus; columns: every wrapped board, twisted on a
Moebius strip), and whether the last step meets the first (rows: every
wrapped board, twisted on a Moebius strip; columns: torus).  A glued closure
makes the path a cycle, with an optional run along the glued line 0.  Across
a twist positions flip, so a Moebius row path closes when h_first + h_last =
a, and the band closes into a width-2 Moebius sub-band around the cut.
"""

from __future__ import annotations

from .errors import ExpansionFailedError
from .tiling import EdgeKey, Tiling, _edge_keys, _verify_keys, tiling_from_edges, verify
from .topology import BoardSpec, build_board

ROWS = "rows"
COLS = "cols"

_PLAIN = "plain"
_TWISTED = "twisted"

_MAX_LEAVES = 512
_MAX_NODES = 200_000


def _candidate_order(limit: int, anchor: int, first: bool) -> list[int]:
    if first:
        return sorted(range(limit + 1), key=lambda h: (abs(2 * h - limit), h))
    return sorted(range(limit + 1), key=lambda h: (abs(h - anchor) != 1, abs(h - anchor), h))


class _Cut:
    """DFS over cut paths; __init__ turns the axis and topology into line kinds, sizes and gluings."""

    def __init__(self, board: BoardSpec, keys: frozenset[EdgeKey], axis: str) -> None:
        self.board = board
        topo, a, b = board.topology, board.a, board.b
        self.axis = axis
        self.placed = keys
        seam = (_TWISTED if topo.twisted else _PLAIN) if topo.wraps_cols else None
        row_edge = _PLAIN if topo.wraps_rows else None
        if axis == ROWS:  # one step per column, crossing horizontal lines
            self.along, self.cross, self.steps, self.limit = "h", "v", b, a
            self.ends, self.closure = row_edge, seam
        else:  # one step per row, crossing vertical lines
            self.along, self.cross, self.steps, self.limit = "v", "h", a, b
            self.ends, self.closure = seam, row_edge
        self.new_board = self.grown_board(1)
        self.leaves = 0
        self.nodes = 0

    def grown_board(self, k: int) -> BoardSpec:
        da, db = (2 * k, 0) if self.axis == ROWS else (0, 2 * k)
        return build_board(self.board.topology, self.board.a + da, self.board.b + db)

    # -- blocking predicates -------------------------------------------------

    def _step_blocked(self, i: int, pos: int) -> bool:
        """Is the path segment across step i at position pos on a tile interior?"""
        if 0 < pos < self.limit:
            return (self.along, pos, i) in self.placed
        if self.ends is None:
            return False
        if self.ends == _TWISTED and pos == 0:  # the low end of step i meets step steps-1-i
            i = self.steps - 1 - i
        return (self.along, 0, i) in self.placed  # positions 0 and limit are glued line 0

    def _run_blocked(self, i: int, p: int, q: int) -> bool:
        """Is the connecting run at boundary line i between positions p and q blocked?"""
        lo, hi = (p, q) if p <= q else (q, p)
        return any((self.cross, i, y) in self.placed for y in range(lo, hi))

    def _closure_ok(self, first: int, last: int) -> bool:
        if self.closure is None:
            return True
        if self.closure == _TWISTED:
            # Positions flip across the twist: the path re-enters at limit-last
            # and may run along the glued line to first.  Glued segments are
            # indexed by their last-step offset, so a run over first-step
            # offsets [lo, hi) blocks the flipped ones.
            lo, hi = sorted((self.limit - last, first))
            return not any((self.cross, 0, self.limit - 1 - y) in self.placed for y in range(lo, hi))
        return not self._run_blocked(0, last, first)

    # -- search --------------------------------------------------------------

    def search(self) -> list[int]:
        """The first cut path whose one-band rebuild verifies fault-free."""
        path = self._dfs([])
        if path is None:
            raise ExpansionFailedError(
                f"no verifying cut path for {self.board} axis={self.axis}"
            )
        return path

    def _dfs(self, path: list[int]) -> list[int] | None:
        i = len(path)
        if i == self.steps:
            if not self._closure_ok(path[0], path[-1]):
                return None
            self.leaves += 1
            if self.leaves > _MAX_LEAVES:
                raise ExpansionFailedError(f"cut search leaf budget exhausted on {self.board}")
            if _verify_keys(self.new_board, self._rebuild(path, 1)).fault_free:
                return list(path)
            return None
        order = _candidate_order(self.limit, path[-1] if path else self.limit // 2, not path)
        for pos in order:
            self.nodes += 1
            if self.nodes > _MAX_NODES:
                raise ExpansionFailedError(f"cut search node budget exhausted on {self.board}")
            if self._step_blocked(i, pos):
                continue
            if path and self._run_blocked(i, path[-1], pos):
                continue
            path.append(pos)
            found = self._dfs(path)
            path.pop()
            if found is not None:
                return found
        return None

    # -- rebuilding ----------------------------------------------------------

    def _rebuild(self, path: list[int], k: int) -> list[EdgeKey]:
        """Shift every domino beyond the cut by 2k and fill k bands, one domino per step each.

        A domino across line `line` of the crossed kind lies beyond the cut
        when its offset is at or past path[line - 1]; the run from there to
        path[line] is unblocked, so either step gives the same side, and
        path[-1] serves the glued line 0.
        """
        shift = 2 * k
        new_edges: list[EdgeKey] = []
        for axis, line, off in self.placed:
            if axis == self.along:
                if line and line >= path[off]:
                    line += shift
            elif off >= path[line - 1]:
                off += shift
            new_edges.append((axis, line, off))
        new_edges.extend((self.along, pos + 1 + 2 * j, i)
                         for j in range(k) for i, pos in enumerate(path))
        return new_edges


def _grow_keys(board: BoardSpec, keys: frozenset[EdgeKey],
               axis: str, k: int) -> tuple[BoardSpec, frozenset[EdgeKey]]:
    """One cut search and k bands along its path: `keys` must verify fault-free on `board`,
    `axis` be ROWS or COLS and k >= 1.

    Returns the board grown by 2k rows or columns and its tiling's edge keys.
    """
    cut = _Cut(board, keys, axis)
    return cut.grown_board(k), frozenset(cut._rebuild(cut.search(), k))


def expand(tiling: Tiling, axis: str) -> Tiling:
    """Return a verified fault-free tiling on (a+2) x b or a x (b+2).

    Raises ValueError for a bad axis or an input that does not verify
    fault-free, and ExpansionFailedError when no verifying cut path exists
    within the search budget (a 1 x 2 board has none).
    """
    if axis not in (ROWS, COLS):
        raise ValueError(f"axis must be 'rows' or 'cols', got {axis!r}")
    if not verify(tiling.board, tiling).fault_free:
        raise ValueError("expansion input must verify fault-free")
    return tiling_from_edges(*_grow_keys(tiling.board, _edge_keys(tiling), axis, 1))
