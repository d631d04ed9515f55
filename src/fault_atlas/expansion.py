"""Grow a fault-free tiling by two rows or two columns via band insertion.

The construction cuts the board along a transversal path that follows tile
boundaries (it never crosses a placed domino's interior segment), shifts one
side by two, and fills the freed width-2 band with parallel dominoes, one per
path step, each offset to follow the path.  Candidate paths are enumerated
depth-first on an explicit stack, each open step's untried positions in a
list, so no recursion limit bounds a path's length.  A path is accepted only
if the rebuilt tiling re-verifies fault-free on the enlarged board, so the
search never has to trust the construction argument.  The search reads and
writes edge keys (axis, line, offset) only; `expand` turns them into
placements once, at the end.

The cut search (`_cut_path`) and the band layer (`_lay_bands`) are separate
steps.  One accepted path serves any number of bands: growing by k double
rows or columns shifts the far side by 2k and lays k parallel bands along the
same path, band j across line pos + 1 + 2j.  The bands are translates of one
another, so k bands at one cut are the tiling that k single expansions
build.  The search checks its leaf with one band; the caller re-verifies the
k-band result.  A path depends only on the board and tiling it is searched
on, so the witness chains keep each family step's path and search it once
per process.

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

from typing import Iterable, Sequence

from .errors import ExpansionFailedError
from .tiling import EdgeKey, Tiling, _edge_keys, _verify_keys, tiling_from_edges, verify
from .topology import _MOBIUS, _RECTANGLE, _TORUS, BoardSpec, build_board

ROWS = "rows"
COLS = "cols"

_MAX_LEAVES = 512
_MAX_NODES = 200_000


def _cut_path(board: BoardSpec, keys: frozenset[EdgeKey], axis: str) -> list[int]:
    """The first cut path, one position per step, whose one-band rebuild verifies fault-free:
    `keys` must verify fault-free on `board` and `axis` be ROWS or COLS."""
    topo, a, b = board.topology, board.a, board.b
    seam = None if topo is _RECTANGLE else topo is _MOBIUS  # each gluing: None absent, False plain, True twisted
    row_edge = False if topo is _TORUS else None
    if axis == ROWS:  # one step per column, crossing horizontal lines
        along, cross, steps, limit, ends, closure = "h", "v", b, a, row_edge, seam
    else:  # one step per row, crossing vertical lines
        along, cross, steps, limit, ends, closure = "v", "h", a, b, seam, row_edge

    def run_blocked(line: int, p: int, q: int) -> bool:
        """Is the connecting run at boundary line `line` between positions p and q on a tile interior?"""
        return any((cross, line, y) in keys for y in range(min(p, q), max(p, q)))

    # untried[i] lists step i's candidate positions not yet tried, the next one last:
    # the first step from the middle outwards, each later one nearest its predecessor first.
    path: list[int] = []
    untried = [sorted(range(limit + 1), key=lambda h: (abs(2 * h - limit), h), reverse=True)]
    leaves = nodes = 0
    while untried:
        if not untried[-1]:
            untried.pop()
            if path:
                path.pop()
            continue
        i, pos = len(path), untried[-1].pop()
        nodes += 1
        if nodes > _MAX_NODES:
            raise ExpansionFailedError(f"cut search node budget exhausted on {board}")
        # Is the path segment across step i on a tile interior?  Positions 0 and limit
        # are glued line 0, where across a twist the low end of step i meets step steps-1-i.
        if 0 < pos < limit:
            blocked = (along, pos, i) in keys
        else:
            blocked = ends is not None and (along, 0, steps - 1 - i if ends and pos == 0 else i) in keys
        if blocked or path and run_blocked(i, path[-1], pos):
            continue
        path.append(pos)
        if len(path) < steps:
            untried.append(sorted(range(limit + 1), reverse=True,
                                  key=lambda h: (abs(h - pos) != 1, abs(h - pos), h)))
            continue
        if closure is None:
            closed = True
        elif closure:
            # Positions flip across the twist: the path re-enters at limit-last
            # and may run along the glued line to first.  Glued segments are
            # indexed by their last-step offset, so a run over first-step
            # offsets [lo, hi) blocks the flipped ones.
            lo, hi = sorted((limit - path[-1], path[0]))
            closed = not any((cross, 0, limit - 1 - y) in keys for y in range(lo, hi))
        else:
            closed = not run_blocked(0, path[-1], path[0])
        if closed:
            leaves += 1
            if leaves > _MAX_LEAVES:
                raise ExpansionFailedError(f"cut search leaf budget exhausted on {board}")
            if _verify_keys(*_lay_bands(board, keys, axis, path, 1)).fault_free:
                return path
        path.pop()
    raise ExpansionFailedError(f"no verifying cut path for {board} axis={axis}")


def _lay_bands(board: BoardSpec, keys: Iterable[EdgeKey], axis: str,
               path: Sequence[int], k: int) -> tuple[BoardSpec, list[EdgeKey]]:
    """The board grown by 2k rows or columns, and its tiling's edge keys: every
    domino beyond the cut `path` shifted by 2k, and k bands along it, one domino per step each.

    A domino across line `line` of the crossed kind lies beyond the cut
    when its offset is at or past path[line - 1]; the run from there to
    path[line] is unblocked, so either step gives the same side, and
    path[-1] serves the glued line 0.
    """
    along, shift = "h" if axis == ROWS else "v", 2 * k
    new_edges: list[EdgeKey] = []
    for kind, line, off in keys:
        if kind == along:
            if line and line >= path[off]:
                line += shift
        elif off >= path[line - 1]:
            off += shift
        new_edges.append((kind, line, off))
    new_edges.extend((along, pos + 1 + 2 * j, i) for j in range(k) for i, pos in enumerate(path))
    a, b = (board.a + shift, board.b) if axis == ROWS else (board.a, board.b + shift)
    return build_board(board.topology, a, b), new_edges


def _grow_keys(board: BoardSpec, keys: frozenset[EdgeKey],
               axis: str, k: int) -> tuple[BoardSpec, frozenset[EdgeKey]]:
    """One cut search and k bands along its path: `keys` must verify fault-free on `board`,
    `axis` be ROWS or COLS and k >= 1."""
    grown, new_keys = _lay_bands(board, keys, axis, _cut_path(board, keys, axis), k)
    return grown, frozenset(new_keys)


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
