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

A parity class is one solution of the GF(2) equations; the totals it admits
run from a minimum to a maximum in steps of 2.  counting_feasible counts the
classes per (min, max) range in one dynamic-programming pass over the
variables, rows first, then columns.  The state is the residual of every
equation still open and, per coverage group still open, whether one of its
variables is odd; an equation is checked against its rhs at its last
variable, a group adds 2 to the minimum or rules the class out at its last.
On a Moebius strip each wrap pair comes next to the two lines it joins, so
the state stays a few bits wide however tall the strip.

A board is counting-feasible when some admissible class can realize a total
of exactly a*b/2.  Infeasible is a sound verdict: the board is not fault-free
tileable.  Feasible proves nothing by itself.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .tiling import Tiling
from .topology import BoardSpec, Topology, _curve_id

STATUS_OK = "ok"
STATUS_ODD_AREA = "odd-area"


@dataclass(frozen=True)
class Variable:
    kind: str  # "x" | "y" | "s" | "u"
    key: object  # line index for x/y, None for s, frozenset row pair for u
    cap: int

    @property
    def name(self) -> str:
        if self.kind == "u":
            return f"u{sorted(self.key)}"
        if self.kind == "s":
            return "s"
        return f"{self.kind}[{self.key}]"


@dataclass(frozen=True)
class ParitySystem:
    """GF(2) equations, coverage groups, and caps over a board's profile."""

    board: BoardSpec
    variables: tuple[Variable, ...]
    equations: tuple[tuple[int, int], ...]  # (variable bitmask, rhs bit)
    coverage_groups: tuple[tuple[int, ...], ...]  # variable indices per fault curve

    def var_index(self) -> dict[tuple[str, object], int]:
        return {(v.kind, v.key): i for i, v in enumerate(self.variables)}

    def check_values(self, values: dict[tuple[str, object], int]) -> list[str]:
        """Evaluate all constraints on integer profile values; returns violations."""
        idx = self.var_index()
        vec = [0] * len(self.variables)
        for key, val in values.items():
            if key not in idx:
                return [f"unknown variable {key}"]
            vec[idx[key]] = val
        out = []
        for i, var in enumerate(self.variables):
            if not 0 <= vec[i] <= var.cap:
                out.append(f"{var.name} = {vec[i]} outside [0, {var.cap}]")
        for mask, rhs in self.equations:
            acc = 0
            m = mask
            i = 0
            while m:
                if m & 1:
                    acc ^= vec[i] & 1
                m >>= 1
                i += 1
            if acc != rhs:
                out.append(f"parity equation violated (mask {mask:#x}, rhs {rhs})")
        for group in self.coverage_groups:
            if sum(vec[i] for i in group) < 1:
                names = ", ".join(self.variables[i].name for i in group)
                out.append(f"fault curve uncovered ({names})")
        total = sum(vec)
        if self.board.area % 2 == 0 and total != self.board.capacity:
            out.append(f"total {total} != capacity {self.board.capacity}")
        return out


@dataclass(frozen=True)
class CrossingProfile:
    x: dict[int, int]
    y: dict[int, int]
    u: dict[frozenset, int]
    s: int

    def as_values(self, board: BoardSpec) -> dict[tuple[str, object], int]:
        values: dict[tuple[str, object], int] = {}
        values.update({("x", line): n for line, n in self.x.items()})
        values.update({("y", line): n for line, n in self.y.items()})
        if board.topology is Topology.MOBIUS:
            values.update({("u", pair): n for pair, n in self.u.items()})
        elif board.topology.wraps_cols:
            values[("s", None)] = self.s
        return values


@dataclass(frozen=True)
class FeasibilityReport:
    """The counting verdict.

    reachable holds the distinct (min, max) total ranges of the admissible
    parity classes, sorted; each range is walked in steps of 2.
    """

    min_required: int | None
    feasible: bool
    parity_classes_examined: int
    reachable: tuple[tuple[int, int], ...]
    capacity: int | None
    status: str = STATUS_OK


def _mobius_pairs(a: int) -> list[frozenset]:
    pairs = []
    for r in range(a):
        r2 = a - 1 - r
        if r <= r2:
            pairs.append(frozenset({r, r2}))
    return pairs


def build_parity_system(board: BoardSpec) -> ParitySystem:
    """Emit the GF(2) row/column/color equations with coverage and caps."""
    a, b, topo = board.a, board.b, board.topology
    variables: list[Variable] = []
    index: dict[tuple[str, object], int] = {}

    def add(kind: str, key: object, cap: int) -> int:
        index[(kind, key)] = len(variables)
        variables.append(Variable(kind, key, cap))
        return len(variables) - 1

    h_lines = range(a) if topo is Topology.TORUS else range(1, a)
    for line in h_lines:
        cap = 0 if (topo is Topology.TORUS and a == 1) else b
        add("x", line, cap)
    for line in range(1, b):
        add("y", line, a)
    if topo in (Topology.CYLINDER, Topology.TORUS):
        add("s", None, a if b >= 2 else 0)
    u_vars: list[int] = []
    if topo is Topology.MOBIUS:
        for pair in _mobius_pairs(a):
            if len(pair) == 2:
                cap = 2 if b >= 2 else 1
            else:
                cap = 1 if b >= 2 else 0
            u_vars.append(add("u", pair, cap))

    equations: list[tuple[int, int]] = []

    def x_bit(line: int) -> int:
        if topo is Topology.TORUS:
            return 1 << index[("x", line % a)]
        if 1 <= line <= a - 1:
            return 1 << index[("x", line)]
        return 0  # board boundary: no line, forced zero

    for r in range(a):
        mask = x_bit(r) ^ x_bit(r + 1)
        if topo is Topology.MOBIUS and r != a - 1 - r:
            mask ^= 1 << index[("u", frozenset({r, a - 1 - r}))]
        equations.append((mask, b & 1))

    def col_side(line: int) -> int:
        if 1 <= line <= b - 1:
            return 1 << index[("y", line)]
        if topo is Topology.RECTANGLE:
            return 0
        if topo is Topology.MOBIUS:
            mask = 0
            for i in u_vars:
                mask ^= 1 << i
            return mask
        return 1 << index[("s", None)]

    for c in range(b):
        # b == 1 cancels naturally: both sides of the column are the seam,
        # so every wrap tile contributes two cells and the terms XOR away.
        equations.append((col_side(c) ^ col_side(c + 1), a & 1))

    if topo is Topology.MOBIUS and a % 2 == 0 and b % 2 == 0:
        mask = 0
        for i in u_vars:
            mask ^= 1 << i
        equations.append((mask, 0))

    curve_vars: dict[int, list[int]] = {}
    for line in h_lines:
        curve_vars.setdefault(_curve_id(board, "h", line), []).append(index[("x", line)])
    for line in range(0 if topo.wraps_cols else 1, b):
        if line:
            members = [index[("y", line)]]
        else:
            members = u_vars if topo is Topology.MOBIUS else [index[("s", None)]]
        curve_vars.setdefault(_curve_id(board, "v", line), []).extend(members)
    groups = tuple(tuple(curve_vars[cid]) for cid in sorted(curve_vars))
    return ParitySystem(board, tuple(variables), tuple(equations), groups)


def _sweep_order(system: ParitySystem) -> list[int]:
    """Variable indices, rows then columns; a Moebius wrap pair {j, a-1-j} before lines j+1 and a-1-j."""
    index = system.var_index()
    a, b = system.board.a, system.board.b
    if system.board.topology is Topology.MOBIUS:
        rows = [key for j in range((a + 1) // 2)
                for key in (("u", frozenset({j, a - 1 - j})), ("x", j + 1), ("x", a - 1 - j))]
    else:
        rows = [("x", line) for line in range(a)]
    cols = [("s", None)] + [("y", line) for line in range(1, b)]
    return list(dict.fromkeys(index[key] for key in rows + cols if key in index))


def _range_counts(system: ParitySystem) -> dict[tuple[int, int] | None, int]:
    """Parity classes per (min total, max total), None for the inadmissible ones.

    Equation j is state bit j and coverage group g is bit n + g, where n is
    the number of equations.  A class is inadmissible when a parity exceeds
    its cap, or when a group has no odd variable and no cap of 2 or more to
    cross it twice; a group with no odd variable otherwise adds 2 to the minimum.
    """
    order = _sweep_order(system)
    at = {i: k for k, i in enumerate(order)}
    n = len(system.equations)
    flips = [0] * len(order)  # equation bits an odd parity at step k toggles
    marks = [0] * len(order)  # group bits it sets
    closing = [[0, 0, []] for _ in order]  # equation bits, their rhs bits, (group bit, fixable)
    for j, (mask, rhs) in enumerate(system.equations):
        steps = [at[i] for i in range(len(system.variables)) if mask >> i & 1]
        if not steps:
            if rhs:
                return {}
            continue
        for k in steps:
            flips[k] |= 1 << j
        closing[max(steps)][0] |= 1 << j
        closing[max(steps)][1] |= rhs << j
    for g, group in enumerate(system.coverage_groups):
        for i in group:
            marks[at[i]] |= 1 << (n + g)
        fixable = any(system.variables[i].cap >= 2 for i in group)
        closing[max(at[i] for i in group)][2].append((1 << (n + g), fixable))
    layer: dict[tuple[int, tuple[int, int] | None], int] = {(0, (0, 0)): 1}
    for k, i in enumerate(order):
        cap = system.variables[i].cap
        eq_bits, eq_rhs, groups = closing[k]
        nxt: dict[tuple[int, tuple[int, int] | None], int] = {}
        for (state, rng), count in layer.items():
            for p in (0, 1):
                s = (state ^ flips[k]) | marks[k] if p else state
                if s & eq_bits != eq_rhs:
                    continue
                s &= ~eq_bits
                r = None if rng is None or p > cap else (rng[0] + p, rng[1] + cap - (cap - p) % 2)
                for bit, fixable in groups:
                    if r is not None and not s & bit:
                        r = (r[0] + 2, r[1]) if fixable else None
                    s &= ~bit
                nxt[s, r] = nxt.get((s, r), 0) + count
        layer = nxt
    return {r: count for (_s, r), count in layer.items()}


@functools.lru_cache(maxsize=128)
def counting_feasible(board: BoardSpec) -> FeasibilityReport:
    """Decide whether any admissible profile can total exactly a*b/2."""
    if board.area % 2:
        return FeasibilityReport(None, False, 0, (), None, STATUS_ODD_AREA)
    counts = _range_counts(build_parity_system(board))
    reachable = tuple(sorted(r for r in counts if r is not None))
    capacity = board.capacity
    feasible = any(lo <= capacity <= hi and (capacity - lo) % 2 == 0 for lo, hi in reachable)
    best = reachable[0][0] if reachable else None
    return FeasibilityReport(best, feasible, sum(counts.values()), reachable, capacity)


def min_required_tiles(board: BoardSpec) -> int | None:
    """Minimum tiles to cover all fault curves under parity and caps.

    The exact-sum condition is excluded.  None means no parity class admits
    any assignment at all (some curve can never be crossed).  This is the
    minimum of counting_feasible's report, so asking both costs one pass.
    """
    if board.area % 2:
        raise ValueError(f"min_required_tiles needs even area, got {board.a}x{board.b}")
    return counting_feasible(board).min_required


def profile_of(board: BoardSpec, tiling: Tiling) -> CrossingProfile:
    """Crossing counts per line / seam / wrap pair for a tiling."""
    x: dict[int, int] = {}
    y: dict[int, int] = {}
    u: dict[frozenset, int] = {}
    a, topo = board.a, board.topology
    h_lines = range(a) if topo is Topology.TORUS else range(1, a)
    for line in h_lines:
        x[line] = 0
    for line in range(1, board.b):
        y[line] = 0
    if topo is Topology.MOBIUS:
        for pair in _mobius_pairs(a):
            u[pair] = 0
    s = 0
    for plc in tiling.dominoes:
        edge = plc.edge
        if edge.axis == "h":
            x[edge.line] += 1
        elif edge.line == 0:
            s += 1
            if topo is Topology.MOBIUS:
                u[frozenset({edge.offset, a - 1 - edge.offset})] += 1
        else:
            y[edge.line] += 1
    return CrossingProfile(x, y, u, s)


def check_profile(board: BoardSpec, profile: CrossingProfile) -> list[str]:
    """All violated necessity constraints (including exact sum); [] if none."""
    system = build_parity_system(board)
    return system.check_values(profile.as_values(board))
