"""Grow a fault-free tiling by two rows or two columns via band insertion.

The construction cuts the board along a transversal path that follows tile
boundaries (it never crosses a placed domino's interior segment), shifts one
side by two, and fills the freed width-2 band with parallel dominoes, one per
path step, each offset to follow the path.  Candidate paths are enumerated
depth-first; a path is accepted only if the rebuilt tiling re-verifies
fault-free on the enlarged board, so the search never has to trust the
construction argument.

Path closure depends on the topology.  A row-insertion path runs across the
columns: it has free ends on a rectangle, and must close into a cycle through
the seam on a cylinder or torus (same height on both sides, with an optional
run along the seam).  On a Moebius strip heights flip across the twist, so
the twist-compatible closure is h_first + h_last = a; the band then closes
into a width-2 Moebius sub-band around the cut.  Column-insertion paths run
across the rows and only the torus needs a closed cycle (through the glued
row edge).
"""

from __future__ import annotations

from .errors import ExpansionFailedError
from .tiling import Tiling, tiling_from_edges, verify
from .topology import Topology, build_board

ROWS = "rows"
COLS = "cols"

_MAX_LEAVES = 512
_MAX_NODES = 200_000


def _candidate_order(limit: int, anchor: int, first: bool) -> list[int]:
    if first:
        return sorted(range(limit + 1), key=lambda h: (abs(2 * h - limit), h))
    return sorted(range(limit + 1), key=lambda h: (abs(h - anchor) != 1, abs(h - anchor), h))


class _Cut:
    """Shared DFS over cut paths; axis-specific hooks fill in the geometry."""

    def __init__(self, tiling: Tiling, axis: str) -> None:
        self.board = tiling.board
        self.axis = axis
        self.placed = {p.edge.key() for p in tiling.dominoes}
        self.tiling = tiling
        a, b = self.board.a, self.board.b
        self.steps = b if axis == ROWS else a  # one position per column / row
        self.limit = a if axis == ROWS else b
        self.new_board = build_board(
            self.board.topology,
            a + 2 if axis == ROWS else a,
            b if axis == ROWS else b + 2,
        )
        self.leaves = 0
        self.nodes = 0

    # -- blocking predicates -------------------------------------------------

    def _step_blocked(self, i: int, pos: int) -> bool:
        """Is the path segment across step i at position pos on a tile interior?"""
        topo = self.board.topology
        a, b = self.board.a, self.board.b
        if self.axis == ROWS:
            if 1 <= pos <= a - 1:
                return ("h", pos, i) in self.placed
            if topo is Topology.TORUS:  # heights 0 and a are the glued row edge
                return ("h", 0, i) in self.placed
            return False
        if 1 <= pos <= b - 1:
            return ("v", pos, i) in self.placed
        if topo in (Topology.CYLINDER, Topology.TORUS):
            return ("v", 0, i) in self.placed
        if topo is Topology.MOBIUS:
            row = i if pos == b else a - 1 - i  # left edge meets row a-1-i
            return ("v", 0, row) in self.placed
        return False

    def _run_blocked(self, i: int, p: int, q: int) -> bool:
        """Is the connecting run at boundary line i between positions p and q blocked?"""
        lo, hi = (p, q) if p <= q else (q, p)
        key = "v" if self.axis == ROWS else "h"
        return any((key, i, y) in self.placed for y in range(lo, hi))

    def _closure_ok(self, first: int, last: int) -> bool:
        topo = self.board.topology
        if self.axis == ROWS:
            if topo is Topology.RECTANGLE:
                return True
            if topo is Topology.MOBIUS:
                # Heights flip across the twist: the path re-enters at a-last
                # and may run along the seam to first.  Seam segments are
                # indexed by their right-edge row, so a run over left-edge
                # rows [lo, hi) blocks the flipped offsets.
                a = self.board.a
                lo, hi = sorted((a - last, first))
                return not any(("v", 0, a - 1 - y) in self.placed for y in range(lo, hi))
            return not self._run_blocked(0, last, first)
        if topo is Topology.TORUS:
            return not self._run_blocked(0, last, first)
        return True

    # -- search --------------------------------------------------------------

    def search(self) -> Tiling:
        path: list[int] = []
        result = self._dfs(path)
        if result is None:
            raise ExpansionFailedError(
                f"no verifying cut path for {self.board} axis={self.axis}"
            )
        return result

    def _dfs(self, path: list[int]) -> Tiling | None:
        i = len(path)
        if i == self.steps:
            if not self._closure_ok(path[0], path[-1]):
                return None
            self.leaves += 1
            if self.leaves > _MAX_LEAVES:
                raise ExpansionFailedError(f"cut search leaf budget exhausted on {self.board}")
            candidate = self._rebuild(path)
            if verify(self.new_board, candidate).fault_free:
                return candidate
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

    def _rebuild(self, path: list[int]) -> Tiling:
        topo = self.board.topology
        a, b = self.board.a, self.board.b
        new_edges: list[tuple[str, int, int]] = []
        if self.axis == ROWS:
            h = path
            for p in self.tiling.dominoes:
                axis, line, off = p.edge.key()
                if axis == "h":
                    if line == 0:
                        new_edges.append(("h", 0, off))
                    else:
                        new_edges.append(("h", line if line <= h[off] - 1 else line + 2, off))
                elif line == 0:
                    anchor = h[b - 1] if topo is Topology.MOBIUS else h[0]
                    new_edges.append(("v", 0, off + 2 * (off >= anchor)))
                else:
                    new_edges.append(("v", line, off + 2 * (off >= h[line])))
            for c in range(b):
                new_edges.append(("h", h[c] + 1, c))
        else:
            v = path
            for p in self.tiling.dominoes:
                axis, line, off = p.edge.key()
                if axis == "v":
                    if line == 0:
                        new_edges.append(("v", 0, off))
                    else:
                        new_edges.append(("v", line if line <= v[off] - 1 else line + 2, off))
                else:
                    upper = (line - 1) % a
                    new_edges.append(("h", line, off + 2 * (off >= v[upper])))
            for r in range(a):
                new_edges.append(("v", v[r] + 1, r))
        return tiling_from_edges(self.new_board, new_edges)


def expand(tiling: Tiling, axis: str) -> Tiling:
    """Return a verified fault-free tiling on (a+2) x b or a x (b+2).

    Raises ExpansionFailedError when no verifying cut path exists within the
    search budget; witness() then tries the board's next family chain.  The
    input must itself verify fault-free.
    """
    if axis not in (ROWS, COLS):
        raise ValueError(f"axis must be 'rows' or 'cols', got {axis!r}")
    if not verify(tiling.board, tiling).fault_free:
        raise ValueError("expansion input must verify fault-free")
    return _Cut(tiling, axis).search()
