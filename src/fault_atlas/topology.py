"""Boards, domino placements, and fault curves on four grid topologies.

A board is an a x b grid of unit cells, 0-indexed with row 0 at the top.
Cylinders glue the two vertical edges (the seam, vertical line 0), tori glue
both edge pairs, and Moebius strips glue the vertical edges with a half twist
so that (r, b-1) meets (a-1-r, 0).

Every domino is identified by the unit grid segment interior to it -- its
crossing edge.  Identifying placements by edges rather than cell pairs keeps
parallel placements distinct on small wrapped boards (e.g. a cylinder of
circumference 2 joins each horizontal cell pair twice: once through the seam
and once through the internal line).

A fault curve is a fold locus: a maximal set of grid lines along which the
board could be folded.  On a Moebius strip a horizontal fold at line l
continues across the twist as line a-l, so those two lines form one curve;
the middle line of an even-height strip closes onto itself.
"""

from __future__ import annotations

import enum
import functools
from typing import Iterator, NamedTuple

from .errors import InvalidDimensionError

Cell = tuple[int, int]


class Topology(str, enum.Enum):
    RECTANGLE = "rectangle"
    CYLINDER = "cylinder"
    TORUS = "torus"
    MOBIUS = "mobius"


def _is_int(value: object) -> bool:
    """An integer that is not a bool: bool is an int subclass but no dimension or index."""
    return isinstance(value, int) and not isinstance(value, bool)


class BoardSpec(NamedTuple):
    """A board: topology plus height a (rows) and width b (columns), validated by build_board."""

    topology: Topology
    a: int
    b: int

    @property
    def area(self) -> int:
        return self.a * self.b

    @property
    def capacity(self) -> int:
        """Dominoes in any complete tiling; defined only for even area."""
        if self.area % 2:
            raise ValueError(f"capacity undefined for odd area {self.a}x{self.b}")
        return self.area // 2

    def __str__(self) -> str:
        mark = {"rectangle": "", "cylinder": "'", "torus": "'", "mobius": '"'}[self.topology.value]
        tail = "'" if self.topology is Topology.TORUS else ""
        return f"{self.topology.value} {self.a}{mark}x{self.b}{tail}"


class CrossingEdge(NamedTuple):
    """The unit grid segment interior to one domino.

    axis "h": a segment of horizontal line `line` (1..a-1 internal; 0 is the
    glued row edge on a torus) at column `offset`; crossed by a vertical
    domino.  axis "v": a segment of vertical line `line` (1..b-1 internal;
    0 is the seam on wrapped topologies) at row `offset`; crossed by a
    horizontal domino.  As a tuple it equals, and hashes as, its edge key.
    """

    axis: str
    line: int
    offset: int

    def key(self) -> tuple[str, int, int]:
        return (self.axis, self.line, self.offset)


class Placement(NamedTuple):
    """One domino: its crossing edge plus the two cells it covers."""

    edge: CrossingEdge
    cells: tuple[Cell, Cell]

    @property
    def is_wrap(self) -> bool:
        return self.edge.line == 0


class FaultCurve(NamedTuple):
    """A fold locus: the grid lines it consists of and their crossing edges."""

    id: int
    axis: str  # "horizontal" | "vertical"
    lines: frozenset[int]
    crossing_edges: frozenset[CrossingEdge]


def build_board(topology: Topology | str, a: int, b: int) -> BoardSpec:
    """Construct a validated board; raises InvalidDimensionError on bad dims."""
    topology = Topology(topology)
    if not (_is_int(a) and _is_int(b)):
        raise InvalidDimensionError(f"dimensions must be integers, got {a!r} x {b!r}")
    if a < 1 or b < 1:
        raise InvalidDimensionError(f"dimensions must be >= 1, got {a} x {b}")
    return BoardSpec(topology, a, b)


def _seam_cells(board: BoardSpec, r: int) -> tuple[Cell, Cell] | None:
    """Cells joined by the seam segment at offset r, or None if degenerate."""
    a, b = board.a, board.b
    if board.topology is Topology.MOBIUS:
        r2 = a - 1 - r
        if b == 1:
            if r >= r2:  # offsets r and a-1-r name the same glued segment
                return None
            return ((r, 0), (r2, 0))
        return ((r, b - 1), (r2, 0))
    if b == 1:  # cylinder/torus wrap would join a cell to itself
        return None
    return ((r, b - 1), (r, 0))


# Enum members read through the class cost about 0.2 us each on Python 3.11;
# the per-domino helpers below compare against these names instead.
_RECTANGLE, _TORUS, _MOBIUS = Topology.RECTANGLE, Topology.TORUS, Topology.MOBIUS


def _edge_cells(board: BoardSpec, axis: str, line: int, offset: int) -> tuple[Cell, Cell] | None:
    """Cells of the domino crossing edge (axis, line, offset), or None if the board has no such edge."""
    a, b = board.a, board.b
    if axis == "h":
        if not 0 <= offset < b:
            return None
        if 0 < line < a:
            return ((line - 1, offset), (line, offset))
        if line == 0 and a > 1 and board.topology is _TORUS:  # the glued row edge
            return ((a - 1, offset), (0, offset))
        return None
    if axis == "v":
        if not 0 <= offset < a:
            return None
        if 0 < line < b:
            return ((offset, line - 1), (offset, line))
        if line == 0 and board.topology is not _RECTANGLE:
            return _seam_cells(board, offset)
    return None


def _curve_id(board: BoardSpec, axis: str, line: int) -> int:
    """Id of the fault curve through grid line `line` of the axis ("h" or "v").

    Horizontal curves come first in line order: a of them on a torus, a // 2
    on a Moebius strip (line l shares the curve of line a-l), a-1 otherwise.
    Vertical curves follow, from line 0 (the seam) or, on a rectangle, line
    1.  The id a vertical line b would get is the number of curves.
    """
    topo, a = board.topology, board.a
    if axis == "h":
        if topo is _MOBIUS:
            return min(line, a - line) - 1
        return line if topo is _TORUS else line - 1
    if topo is _RECTANGLE:
        return a - 2 + line
    if topo is _MOBIUS:
        return a // 2 + line
    return a + line if topo is _TORUS else a - 1 + line


def _fold_lines(board: BoardSpec, axis: str) -> range:
    """The grid lines of the axis ("h" or "v") that fault curves run along.

    The internal lines always; line 0 too where the board is glued across it
    (the row edge of a torus, the seam of every wrapped topology).
    """
    glued = board.topology is _TORUS if axis == "h" else board.topology is not _RECTANGLE
    return range(0 if glued else 1, board.a if axis == "h" else board.b)


# Board tables are kept for the most recent boards only; an evicted table is rebuilt.
_TABLE_MEMO = 128


def _edges(board: BoardSpec) -> Iterator[tuple[str, int, int, tuple[Cell, Cell]]]:
    """(axis, line, offset, cells) of every crossing edge, in (axis, line, offset) order."""
    for axis, lines, offsets in (("h", board.a, board.b), ("v", board.b, board.a)):
        for line in range(lines):
            for offset in range(offsets):
                cells = _edge_cells(board, axis, line, offset)
                if cells is not None:
                    yield axis, line, offset, cells


@functools.lru_cache(maxsize=_TABLE_MEMO)
def placements(board: BoardSpec) -> tuple[Placement, ...]:
    """Every domino placement on the board, one per crossing edge, in (axis, line, offset) order."""
    return tuple(Placement(CrossingEdge(axis, line, offset), cells)
                 for axis, line, offset, cells in _edges(board))


@functools.lru_cache(maxsize=_TABLE_MEMO)
def fault_curves(board: BoardSpec) -> tuple[FaultCurve, ...]:
    """All fold loci with their crossing-edge sets (possibly empty)."""
    curves: dict[int, tuple[str, set[int], list[CrossingEdge]]] = {}
    line_curve: dict[tuple[str, int], int] = {}
    for axis, name in (("h", "horizontal"), ("v", "vertical")):
        for line in _fold_lines(board, axis):
            cid = line_curve[axis, line] = _curve_id(board, axis, line)
            curves.setdefault(cid, (name, set(), []))[1].add(line)
    for axis, line, offset, _cells in _edges(board):
        curves[line_curve[axis, line]][2].append(CrossingEdge(axis, line, offset))
    return tuple(FaultCurve(cid, name, frozenset(lines), frozenset(edges))
                 for cid, (name, lines, edges) in sorted(curves.items()))
