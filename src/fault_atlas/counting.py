"""Counting impossibility arguments: parity-forced minimum crossing profiles.

Every complete tiling induces a crossing profile: per horizontal line the
number of vertical dominoes crossing it (x), per internal vertical line the
number of horizontal dominoes crossing it (y), the seam crossings (s), and on
a Moebius strip the wrap count per row pair (u, with s = sum(u)).  Counting
the cells of each row and column modulo 2 forces linear relations on these
quantities over GF(2); covering every fault curve forces per-curve sums >= 1;
caps bound each variable by its number of crossing edges; on a Moebius strip
with both sides even, wrap tiles cover same-colored cells so color balance
forces s to be even.

A parity class is one solution of the GF(2) equations.  counting_feasible
finds every total an admissible profile reaches in one dynamic-programming
pass over the variables in the order they are numbered: rows first, then the
seam and the columns.  Each state keeps one set of reachable partial totals,
an int with bit t for total t; the classes themselves are counted apart.  On
a Moebius strip each wrap pair comes next to the two lines it joins, so the
state stays a few bits wide however tall the strip.

A board is counting-feasible when some admissible profile totals exactly
a*b/2.  Infeasible is a sound verdict: the board is not fault-free
tileable.  Feasible proves nothing by itself.
"""

from __future__ import annotations

import functools
import re
from typing import NamedTuple

from .topology import BoardSpec, Topology

STATUS_OK = "ok"
STATUS_ODD_AREA = "odd-area"


class Variable(NamedTuple):
    kind: str  # "x" | "y" | "s" | "u"
    key: object  # line index for x/y, None for s, frozenset row pair for u
    cap: int


class ParitySystem(NamedTuple):
    """GF(2) equations, coverage groups, and caps over a board's profile.

    The variables come in sweep order: rows, then the seam, then the columns;
    on a Moebius strip each wrap pair {j, a-1-j} comes just before lines j+1
    and a-1-j.  Bit i of an equation's mask is variable i.
    """

    board: BoardSpec
    variables: tuple[Variable, ...]
    equations: tuple[tuple[int, int], ...]  # (variable bitmask, rhs bit)
    coverage_groups: tuple[tuple[int, ...], ...]  # variable indices per fault curve


class FeasibilityReport(NamedTuple):
    """The counting verdict.

    reachable holds the maximal runs lo, lo+2, ..., hi of reachable totals as
    (lo, hi), sorted; min_required is the least.  parity_classes_examined
    counts every solution of the GF(2) equations, admissible or not.
    """

    min_required: int | None
    feasible: bool
    parity_classes_examined: int
    reachable: tuple[tuple[int, int], ...]
    capacity: int | None
    status: str = STATUS_OK


def build_parity_system(board: BoardSpec) -> ParitySystem:
    """Emit the GF(2) row/column/color equations with coverage and caps."""
    a, b, topo = board.a, board.b, board.topology
    variables: list[Variable] = []
    x = [0] * a  # mask bit of horizontal line l's variable, 0 on a boundary line; line a is line 0
    wrap = [0] * a  # on a Moebius strip, the bit of row r's wrap pair; 0 on the middle row
    seam = 0  # the s bit, or on a Moebius strip the wrap pairs together; none on a rectangle
    if topo is Topology.MOBIUS:
        # block j is u{j, a-1-j} at 3j, then lines j+1 and a-1-j at 3j+1 and 3j+2 if new
        for j in range((a + 1) // 2):
            pair = a - 1 - j
            seam |= 1 << len(variables)
            wrap[j] = wrap[pair] = (j != pair) << len(variables)
            variables.append(Variable("u", frozenset({j, pair}), (2 if b >= 2 else 1) - (j == pair)))
            for line in (j + 1, pair)[:pair - j]:
                x[line] = 1 << len(variables)
                variables.append(Variable("x", line, b))
        groups = [(3 * c + 1, 3 * c + 2) if a != 2 * c + 2 else (3 * c + 1,) for c in range(a // 2)]
        groups.append(tuple(range(0, 3 * ((a + 1) // 2), 3)))
    else:
        cap = 0 if a == 1 else b  # cap 0: line 0 of a 1-high torus cannot be crossed
        for line in range(0 if topo is Topology.TORUS else 1, a):
            x[line] = 1 << len(variables)
            variables.append(Variable("x", line, cap))
        if topo is not Topology.RECTANGLE:
            seam = 1 << len(variables)
            variables.append(Variable("s", None, a if b >= 2 else 0))
        groups = [(i,) for i in range(len(variables))]
    # Line b is the seam, line 0.  b == 1 cancels naturally: both sides of the column
    # are the seam, so every wrap tile contributes two cells and the terms XOR away.
    y = [seam] * b
    for line in range(1, b):
        groups.append((len(variables),))
        y[line] = 1 << len(variables)
        variables.append(Variable("y", line, a))
    equations = [(x[r] ^ x[(r + 1) % a] ^ wrap[r], b & 1) for r in range(a)]
    equations += [(y[c] ^ y[(c + 1) % b], a & 1) for c in range(b)]
    if topo is Topology.MOBIUS and a % 2 == 0 and b % 2 == 0:
        equations.append((seam, 0))
    return ParitySystem(board, tuple(variables), tuple(equations), tuple(groups))


def _reachable_totals(system: ParitySystem) -> int:
    """The totals of every admissible profile, as an int with bit t for total t.

    The state has bit j for the residual of open equation j and bit n + g for
    whether open coverage group g is covered.  A variable takes 0, an even
    value >= 2 or an odd value, the last two covering its groups; each move
    adds its set of values to the union of partial totals a state keeps, and
    adding a set distributes over a union, so the union is exact.  At its last
    variable an equation must meet its rhs and a group must be covered.  Per
    variable, flips and marks are the equation bits its odd value toggles and
    the group bits a value >= 1 covers; need and want are the bits closing
    there and their required values.  Set-up walks only the set bits of each
    equation's mask.  On a Moebius strip the two column equations at the seam
    and the color equation hold every wrap pair (33 variables on 64"x64), but
    a variable lies in at most five equations, so the steps are linear in the
    board's side (412 in all on 64"x64); the shifts that double the span of
    the even values added are worked out once per cap, not once per state.
    """
    m, n = len(system.variables), len(system.equations)
    flips, marks, need, want = ([0] * m for _ in range(4))
    for j, (mask, rhs) in enumerate(system.equations):
        rest = mask
        while rest:
            low = rest & -rest
            flips[low.bit_length() - 1] |= 1 << j
            rest ^= low
        last = mask.bit_length() - 1  # -1, the last variable, for an equation without variables
        need[last] |= 1 << j
        want[last] |= rhs << j
    for g, group in enumerate(system.coverage_groups):
        bit = 1 << (n + g)
        for i in group:
            marks[i] |= bit
        need[max(group)] |= bit
        want[max(group)] |= bit
    doublings: dict[int, list[int]] = {}  # cap -> shifts taking {2} to every even value in 2..cap
    for cap in {var.cap for var in system.variables}:
        half, span, shifts = cap // 2, 1, []
        while span < half:  # doubling the span of the values added
            shifts.append(2 * min(span, half - span))
            span *= 2
        doublings[cap] = shifts
    layer = {0: 1}  # state -> reachable partial totals
    for k, var in enumerate(system.variables):
        cap, flip, mark, close, ok = var.cap, flips[k], marks[k], need[k], want[k]
        keep, shifts = ~close, doublings[cap]
        nxt: dict[int, int] = {}
        get = nxt.get
        for state, totals in layer.items():
            high = totals << 2 if cap >= 2 else 0  # totals plus an even value >= 2
            for shift in shifts:
                high |= high << shift
            if state & close == ok:  # the value 0
                nxt[state & keep] = get(state & keep, 0) | totals
            s = state | mark  # an even value of 2 or more
            if high and s & close == ok:
                nxt[s & keep] = get(s & keep, 0) | high
            s = (state ^ flip) | mark  # an odd value
            if cap and s & close == ok:
                odd = high >> 1 if cap % 2 == 0 else (totals | high) << 1
                nxt[s & keep] = get(s & keep, 0) | odd
        layer = nxt
        if not layer:  # no admissible profile: every later layer is empty too
            break
    return layer.get(0, 0)


def _solution_count(system: ParitySystem) -> int:
    """The number of parity classes: solutions of the GF(2) equations."""
    pivots: dict[int, int] = {}  # leading bit -> reduced equation, mask << 1 | rhs
    for mask, rhs in system.equations:
        eq = mask << 1 | rhs
        while eq.bit_length() in pivots:
            eq ^= pivots[eq.bit_length()]
        if eq == 1:  # 0 = 1
            return 0
        if eq:
            pivots[eq.bit_length()] = eq
    return 1 << (len(system.variables) - len(pivots))


@functools.lru_cache(maxsize=128)
def counting_feasible(board: BoardSpec) -> FeasibilityReport:
    """Decide whether any admissible profile can total exactly a*b/2."""
    if board.area % 2:
        return FeasibilityReport(None, False, 0, (), None, STATUS_ODD_AREA)
    system = build_parity_system(board)
    totals = _reachable_totals(system)
    bits = f"{totals:b}"[::-1]  # the maximal runs lo, lo+2, ..., hi of totals, per parity
    runs = tuple(sorted((2 * run.start() + p, 2 * run.end() - 2 + p)
                        for p in (0, 1) for run in re.finditer("1+", bits[p::2])))
    capacity = board.capacity
    return FeasibilityReport(runs[0][0] if runs else None, bool(totals >> capacity & 1),
                             _solution_count(system), runs, capacity)


def min_required_tiles(board: BoardSpec) -> int | None:
    """Minimum tiles to cover all fault curves under parity and caps.

    The exact-sum condition is excluded.  None means no parity class admits
    any assignment at all (some curve can never be crossed).  This is the
    minimum of counting_feasible's report, so asking both costs one pass.
    """
    if board.area % 2:
        raise ValueError(f"min_required_tiles needs even area, got {board.a}x{board.b}")
    return counting_feasible(board).min_required

