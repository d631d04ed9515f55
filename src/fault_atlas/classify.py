"""Closed-form fault-free tileability classification for all four topologies.

Each family is one row of data: an id, a verdict, a base board and a step
per side.  A step of 0 fixes the side at the base, 1 admits any length from
the base up, and 2 any length from the base up with the base's parity.
Families are matched in a fixed order: odd area first, then degenerate
1-wide boards, then the remaining not-tileable families, then the tileable
base-plus-even-expansion families.  Some boards satisfy several family
shapes (all with the same verdict); the first match is reported.

Tori are swap-symmetric, so torus boards are canonicalized to a >= b before
matching.  Cylinders and Moebius strips are not (4'x6 is tileable while 6'x4
is not); their rules match oriented (height, circumference) pairs exactly.

The rectangle rule is the externally known closed form -- even area with
both sides at least 5, except 6x6 -- plus the isolated 1x2 board and its
mirror 2x1, whose single domino crosses the board's only fold line.  The
narrow rectangles, min(a,b) <= 4, are the one shape not written as rows.
The classification is validated against the exhaustive search oracle, not
trusted from citation.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InvariantError
from .topology import BoardSpec, Topology, build_board

REASON_ODD_AREA = "odd-area"
REASON_DEGENERATE = "degenerate"
REASON_RULE = "rule-family"


class Family(NamedTuple):
    """One classification rule: a base board grown by fixed steps, with a fixed verdict."""

    id: str
    tileable: bool
    base: tuple[int, int]  # the minimal member
    rows_step: int = 0  # 0 fixed, 1 any taller, 2 even expansion
    cols_step: int = 0
    reason: str = REASON_RULE

    def matches(self, a: int, b: int) -> bool:
        return _fits(a, self.base[0], self.rows_step) and _fits(b, self.base[1], self.cols_step)


def _fits(side: int, base: int, step: int) -> bool:
    return side == base or (step > 0 and side > base and (side - base) % step == 0)


class Verdict(NamedTuple):
    tileable: bool
    reason: str
    family_id: str


def _rows(*rows: tuple) -> tuple[Family, ...]:
    return tuple(Family(*row) for row in rows)


_ODD = {
    Topology.RECTANGLE: "odd x odd",
    Topology.CYLINDER: "odd' x odd",
    Topology.TORUS: "odd' x odd'",
    Topology.MOBIUS: 'odd" x odd',
}

# (id, tileable, base, rows_step, cols_step[, reason]); narrow rectangles are matched in classify().
RECTANGLE_FAMILIES = _rows(
    ("1 x 2", True, (1, 2), 0, 0),
    ("1 x 2", True, (2, 1), 0, 0),  # its mirror
    ("6 x 6", False, (6, 6), 0, 0),
    ("(5+2n) x (6+2m)", True, (5, 6), 2, 2),
    ("(6+2n) x (5+2m)", True, (6, 5), 2, 2),
    ("(6+2n) x (8+2m)", True, (6, 8), 2, 2),
    ("(8+2n) x (6+2m)", True, (8, 6), 2, 2),
)

CYLINDER_FAMILIES = _rows(
    ("(2n)' x 1", False, (2, 1), 2, 0, REASON_DEGENERATE),
    ("1' x (2n)", False, (1, 2), 0, 2, REASON_DEGENERATE),
    ("(2+n)' x 2", False, (2, 2), 1, 0),
    ("2' x (2+n)", False, (2, 2), 0, 1),
    ("(4+2n)' x 3", False, (4, 3), 2, 0),
    ("3' x (4+2n)", False, (3, 4), 0, 2),
    ("(4+n)' x 4", False, (4, 4), 1, 0),
    ("4' x (5+2n)", False, (4, 5), 0, 2),
    ("6' x 5", False, (6, 5), 0, 0),
    ("5' x 6", False, (5, 6), 0, 0),
    ("(4+2n)' x (6+2m)", True, (4, 6), 2, 2),
    ("(7+2n)' x (6+2m)", True, (7, 6), 2, 2),
    ("(6+2n)' x (7+2m)", True, (6, 7), 2, 2),
    ("(8+2n)' x (5+2m)", True, (8, 5), 2, 2),
    ("(5+2n)' x (8+2m)", True, (5, 8), 2, 2),
)

TORUS_FAMILIES = _rows(
    ("(2n)' x 1'", False, (2, 1), 2, 0, REASON_DEGENERATE),
    ("(2+n)' x 2'", False, (2, 2), 1, 0),
    ("(4+2n)' x 3'", False, (4, 3), 2, 0),
    ("(5+2n)' x 4'", False, (5, 4), 2, 0),
    ("6' x 5'", False, (6, 5), 0, 0),
    ("8' x 5'", False, (8, 5), 0, 0),
    ("7' x 6'", False, (7, 6), 0, 0),
    ("(4+2n)' x (4+2m)'", True, (4, 4), 2, 2),
    ("(8+2n)' x (7+2m)'", True, (8, 7), 2, 2),
    ("(9+2n)' x (6+2m)'", True, (9, 6), 2, 2),
    ("(10+2n)' x (5+2m)'", True, (10, 5), 2, 2),
)

MOBIUS_FAMILIES = _rows(
    ('(2n)" x 1', False, (2, 1), 2, 0, REASON_DEGENERATE),
    ('1" x (2n)', False, (1, 2), 0, 2, REASON_DEGENERATE),
    ('(1+2n)" x 2', False, (1, 2), 2, 0),
    ('(2n)" x 2', False, (2, 2), 2, 0),
    ('2" x (2+n)', False, (2, 2), 0, 1),
    ('3" x (4+2n)', False, (3, 4), 0, 2),
    ('4" x (4+2n)', False, (4, 4), 0, 2),
    ('6" x 4', False, (6, 4), 0, 0),
    ('(4+2n)" x (3+2m)', True, (4, 3), 2, 2),
    ('(5+2n)" x (4+2m)', True, (5, 4), 2, 2),
    ('(4+2n)" x (5+2m)', True, (4, 5), 2, 2),
    ('(6+2n)" x (6+2m)', True, (6, 6), 2, 2),
    ('(8+2n)" x (4+2m)', True, (8, 4), 2, 2),
)

FAMILIES: dict[Topology, tuple[Family, ...]] = {
    Topology.RECTANGLE: RECTANGLE_FAMILIES,
    Topology.CYLINDER: CYLINDER_FAMILIES,
    Topology.TORUS: TORUS_FAMILIES,
    Topology.MOBIUS: MOBIUS_FAMILIES,
}


def canonical_dims(board: BoardSpec) -> tuple[int, int]:
    """Torus boards are the same board rotated; match with a >= b."""
    if board.topology is Topology.TORUS and board.a < board.b:
        return board.b, board.a
    return board.a, board.b


def classify(board: BoardSpec) -> Verdict:
    """Fault-free tileability verdict with the matched family."""
    a, b = canonical_dims(board)
    if (a * b) % 2:
        return Verdict(False, REASON_ODD_AREA, _ODD[board.topology])
    for fam in FAMILIES[board.topology]:
        if fam.matches(a, b):
            return Verdict(fam.tileable, fam.reason, fam.id)
    # Every rectangle row but 1 x 2 has both sides at least 5, so no row can shadow this one.
    if board.topology is Topology.RECTANGLE and min(a, b) <= 4:
        return Verdict(False, REASON_RULE, "min(a,b) <= 4")
    raise InvariantError(f"no family matches {board}")  # totality is an invariant


def matching_tileable_families(board: BoardSpec) -> list[tuple[Family, int, int]]:
    """All tileable families containing the board, with (family, n, m) offsets.

    Tileable families step by 0 or 2, so n and m count double rows and columns.
    """
    a, b = canonical_dims(board)
    return [(fam, (a - fam.base[0]) // 2, (b - fam.base[1]) // 2)
            for fam in FAMILIES[board.topology] if fam.tileable and fam.matches(a, b)]


def base_boards(topology: Topology) -> list[BoardSpec]:
    """The minimal member of each expanding tileable family."""
    return [build_board(topology, *fam.base) for fam in FAMILIES[topology]
            if fam.tileable and (fam.rows_step or fam.cols_step)]
