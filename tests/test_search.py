"""Search engine: fault-free search and oracle; each search runs to completion."""

from __future__ import annotations

import gc
import subprocess
import sys
import textwrap
import tracemalloc

import pytest

from fault_atlas import (
    InvariantError,
    OracleRangeError,
    Tiling,
    Topology,
    build_board,
    classify,
    fault_curves,
    fault_free_exists_oracle,
    find_fault_free,
    placements,
    verify,
)
from fault_atlas import search
from fault_atlas.search import _Geometry
from fault_atlas.topology import _curve_id
from conftest import boards_upto, count_tilings, enumerate_fault_free, nested, package_env
from test_search_golden import GOLDEN, _line


class TestCountTilings:
    """The reference count in conftest, which the golden `count` lines rest on."""

    def test_frozen_examples(self):
        assert count_tilings(build_board("rectangle", 2, 3)) == 3
        assert count_tilings(build_board("rectangle", 1, 2)) == 1
        assert count_tilings(build_board("cylinder", 1, 2)) == 2

    @pytest.mark.parametrize("a,b,expected", [
        (2, 4, 5), (2, 10, 89),      # Fibonacci column
        (3, 6, 41), (3, 8, 153),
        (4, 6, 281), (4, 7, 781),
        (5, 6, 1183), (6, 6, 6728),  # classical grid tiling counts
    ])
    def test_known_rectangle_counts(self, a, b, expected):
        assert count_tilings(build_board("rectangle", a, b)) == expected


class TestFindFaultFree:
    def test_6x6_exhausted(self):
        assert find_fault_free(build_board("rectangle", 6, 6)).status == "exhausted-none"

    @pytest.mark.parametrize("topo,a,b", [("cylinder", 4, 6), ("torus", 4, 4), ("mobius", 4, 3)])
    def test_paper_bases_found_and_verified(self, topo, a, b):
        outcome = find_fault_free(build_board(topo, a, b))
        assert outcome.status == "found"
        assert verify(outcome.witness.board, outcome.witness).fault_free

    def test_determinism(self):
        for topo, a, b in [("rectangle", 5, 6), ("cylinder", 5, 6), ("mobius", 5, 4)]:
            board = build_board(topo, a, b)
            first = find_fault_free(board)
            second = find_fault_free(board)
            assert (first.status, first.nodes, first.pruned) == (second.status, second.nodes, second.pruned)
            if first.witness is not None:
                assert first.witness == second.witness

    def test_matches_brute_enumeration(self):
        for board in boards_upto(6, max_area=12):
            expected = any(True for _ in enumerate_fault_free(board))
            got = find_fault_free(board).status == "found"
            assert got == expected, board

    def test_pruned_children_counted(self):
        board = build_board("rectangle", 6, 6)
        assert find_fault_free(board, prune=False).pruned == 0
        runs = {find_fault_free(board).pruned for _ in range(3)}
        assert len(runs) == 1 and runs.pop() > 0

    def test_pruning_differential_small(self):
        for board in boards_upto(6, max_area=16):
            on = find_fault_free(board, prune=True).status
            off = find_fault_free(board, prune=False).status
            assert on == off, board


class TestOracle:
    def test_examples(self):
        assert fault_free_exists_oracle(build_board("cylinder", 5, 6)) is False
        assert fault_free_exists_oracle(build_board("mobius", 5, 4)) is True
        assert fault_free_exists_oracle(build_board("torus", 2, 2)) is False

    def test_ceiling(self):
        with pytest.raises(OracleRangeError):
            fault_free_exists_oracle(build_board("rectangle", 7, 7))
        assert fault_free_exists_oracle(build_board("rectangle", 1, 48)) is False  # the ceiling is inclusive


def test_witness_check_holds_under_optimize():
    script = textwrap.dedent("""
        from types import SimpleNamespace

        import fault_atlas.search as s
        from fault_atlas import InvariantError, build_board

        s.verify = lambda board, tiling: SimpleNamespace(fault_free=False)
        try:
            s.find_fault_free(build_board("rectangle", 5, 6))
        except InvariantError:
            print(__debug__, "raised")
    """)
    done = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True,
                          env=package_env(), timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "raised"]


def cell_bit(geo, cell):
    """The cell's bit in the search's sweep, read from the geometry."""
    r, c = cell
    return geo.row_bit[r] + geo.col_bit[c]


def built(board):
    """A geometry with every line built, as a walk that reaches the whole board leaves it."""
    geo = _Geometry(board)
    while geo.end < board.area:
        geo._build_line()
    return geo


def table_moves(geo):
    """(lower bit, cells mask, curve, edge key, upper bit) of every edge the built lines hold."""
    return [(x, *move) for x, moves in geo.below.items() for move in moves]


def test_geometry_pairs_match_fault_curves():
    """Each curve's pairs are the cell masks of its crossing edges, whether asked for before or after its lines."""
    for board in boards_upto(10):
        early = _Geometry(board)
        asked = {c.id: early._pairs(c.id) for c in fault_curves(board)}  # before any line is built
        while early.end < board.area:
            early._build_line()
        geo = built(board)
        for curve in fault_curves(board):
            cells = [p.cells for p in placements(board) if p.edge in curve.crossing_edges]
            masks = sorted((sum(1 << cell_bit(geo, cell) for cell in pair) for pair in cells), reverse=True)
            assert search._crossings(board, curve.id) == len(masks), (board, curve.id)
            assert list(geo._pairs(curve.id)) == masks, (board, curve.id)
            assert list(asked[curve.id]) == masks, (board, curve.id)  # grown to the whole list, the sentinel gone
        assert not early.growing, board


def test_sweep_follows_the_long_side():
    """Cells map one to one onto the bits, and a domino's two bits are at most 2*min(a, b) apart."""
    for topo in Topology:
        for a in range(1, 25):
            for b in range(1, 25):
                board = build_board(topo, a, b)
                geo = built(board)
                cells = [(r, c) for r in range(a) for c in range(b)]
                assert sorted(cell_bit(geo, cell) for cell in cells) == list(range(a * b)), board
                assert all(i < j <= i + 2 * min(a, b) for i, _, _, _, j in table_moves(geo)), board


def test_search_builds_no_board_table(monkeypatch):
    built = []

    class Counted(_Geometry):
        def __init__(self, board):
            built.append(board)
            super().__init__(board)

    monkeypatch.setattr(search, "_Geometry", Counted)
    odd = build_board("torus", 5, 7)
    assert find_fault_free(odd).nodes == 0
    assert built == []
    tables = (placements.cache_info(), fault_curves.cache_info())
    for board in (build_board("mobius", 5, 4), build_board("cylinder", 4, 6)):
        assert find_fault_free(board).status == "found"
    assert (placements.cache_info(), fault_curves.cache_info()) == tables
    assert len(built) == 2  # one geometry per search, none kept


def test_searches_leave_no_reference_cycles():
    # a board's tables are freed when its search returns, not by the cycle collector
    boards = [build_board(topo, a, b) for topo in Topology for a, b in ((4, 3), (2, 6))]
    gc.collect()
    gc.disable()
    try:
        for board in boards:
            for prune in (True, False):
                find_fault_free(board, prune=prune)
                assert gc.collect() == 0, (prune, board)
    finally:
        gc.enable()


def test_move_table_carries_each_curves_whole_pair_list():
    """Each move sits at its lower cell and carries every other curve at its cells, with all that curve's pairs."""
    for board in boards_upto(24, max_area=24):
        geo = _Geometry(board)
        moves = [[*geo.row(i, True)] for i in range(board.area)]  # every row, each built once, lines as they are needed
        cells = {p.edge: p.cells for p in placements(board)}
        curve_pairs = {c.id: {sum(1 << cell_bit(geo, cell) for cell in cells[e]) for e in c.crossing_edges}
                       for c in fault_curves(board)}
        curve_at = [set() for _ in range(board.area)]  # curves with a crossing edge at each cell
        for p in placements(board):
            for cell in p.cells:
                curve_at[cell_bit(geo, cell)].add(_curve_id(board, p.edge.axis, p.edge.line))
        assert sorted(move[2] for row in moves for move in row) == sorted(cells), board
        shared = {}  # curve -> the ids of its pair lists across the table
        for i, row in enumerate(moves):
            for mask, bit, key, near in row:
                j = mask.bit_length() - 1
                assert mask & -mask == 1 << i and j > i and mask == sum(1 << cell_bit(geo, cell) for cell in cells[key])
                k = _curve_id(board, key[0], key[1])
                assert bit == 1 << k
                nearby = {c.bit_length() - 1: pairs for c, pairs in near}
                assert len(nearby) == len(near) and nearby.keys() == (curve_at[i] | curve_at[j]) - {k}, (board, key)
                for c, pairs in nearby.items():
                    assert len(pairs) == len(curve_pairs[c]) and set(pairs) == curve_pairs[c], (board, key, c)
                    assert list(pairs) == sorted(pairs, reverse=True), (board, key, c)
                    shared.setdefault(c, set()).add(id(pairs))
        assert all(len(ids) == 1 for ids in shared.values()), board  # one shared pair list per curve


def test_geometry_edges_are_the_boards_placements():
    """The built lines give every crossing edge of the board once, at the bits of the cells `placements` gives it."""
    for board in boards_upto(24, max_area=24):
        geo = built(board)
        moves = table_moves(geo)
        assert len(moves) == len(placements(board)), board
        bits = {p.edge: sorted(cell_bit(geo, cell) for cell in p.cells) for p in placements(board)}
        assert {key: [x, y] for x, _, _, key, y in moves} == bits, board
        assert all(mask == 1 << x | 1 << y for x, mask, _, _, y in moves), board


def test_line_zero_decides_whether_some_curve_has_no_crossing_edge():
    """Only a glued line 0 can lack a crossing edge, and its offset 0 tells: checked against fault_curves."""
    for topo in Topology:
        for a in range(1, 25):
            for b in range(1, 25):
                board = build_board(topo, a, b)
                assert search._uncrossable(board) == (not all(c.crossing_edges for c in fault_curves(board))), board
    assert search._uncrossable(build_board("mobius", 1, 1))
    assert not search._uncrossable(build_board("rectangle", 1, 1))


@pytest.mark.parametrize("topo,a,b", [("rectangle", 1, 20000), ("cylinder", 2, 10000)])
def test_a_search_refuted_at_its_root_builds_only_the_lines_it_reaches(topo, a, b, monkeypatch):
    """The geometry's cost follows the cells the walk reaches: a few lines and a bounded peak, not the board."""
    lines = []
    build = _Geometry._build_line

    def counted(geo):
        lines.append(geo.end)
        build(geo)

    monkeypatch.setattr(_Geometry, "_build_line", counted)
    board = build_board(topo, a, b)
    tracemalloc.start()
    try:
        outcome = find_fault_free(board)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (outcome.status == "found") == classify(board).tileable and outcome.nodes == 1, board
    assert len(lines) <= 3, lines
    assert peak < 8 * 2**20, peak  # a whole-board table peaked at 45.0 and 59.9 MiB on these boards


def expanded_cells(board) -> set[int]:
    """The cells the search expands: the lowest free cell of every cover its walk holds, read by a tracer."""
    covers = set()

    def on_line(frame, event, arg):
        if event == "line" and "cover" in frame.f_locals:
            covers.add(frame.f_locals["cover"])
        return on_line

    def on_call(frame, event, arg):
        if frame.f_code.co_name == "_traverse" and frame.f_code.co_filename == search.__file__:
            return on_line
        return None

    sys.settrace(on_call)
    try:
        find_fault_free(board)
    finally:
        sys.settrace(None)
    return {(~cover & (cover + 1)).bit_length() - 1 for cover in covers}


def test_a_cells_row_is_built_when_the_walk_first_expands_it(monkeypatch):
    """One row per expanded cell and none for the rest; the lazy rows keep torus 7'x6' on its golden line."""
    golden = GOLDEN.read_text(encoding="utf-8").splitlines()
    built = []
    row = _Geometry.row

    def counted(geo, i, prune):
        built.append(i)
        return row(geo, i, prune)

    monkeypatch.setattr(_Geometry, "row", counted)
    for topo, a, b in ("rectangle", 24, 1), ("torus", 2, 6), ("mobius", 4, 2), ("torus", 7, 6):
        board = build_board(topo, a, b)
        expanded = expanded_cells(board)
        built.clear()
        line = _line("fault-free", board, find_fault_free(board))
        assert sorted(built) == sorted(expanded) and len(expanded) < board.area, board
        assert line in golden, line


@pytest.mark.parametrize("topo,a,b", [
    ("rectangle", 4, 500), ("rectangle", 6, 334), ("cylinder", 4, 500), ("rectangle", 4, 4000),
    ("rectangle", 5, 2000), ("cylinder", 4, 2000), ("torus", 4, 2000), ("mobius", 5, 1000),
])
def test_deep_boards_search_to_completion(topo, a, b):
    """A search keeps its open nodes on a stack of its own: a thousand dominoes and more run to completion."""
    board = build_board(topo, a, b)
    outcome = find_fault_free(board)
    assert (outcome.status == "found") == classify(board).tileable, board
    assert outcome.witness is None or verify(board, outcome.witness).fault_free, board


def test_search_answer_does_not_depend_on_caller_depth():
    """A search started from deep in the caller's stack ends as one started from the top."""
    for (topo, a, b), status in ((("rectangle", 4, 496), "exhausted-none"), (("cylinder", 4, 2000), "found")):
        board = build_board(topo, a, b)
        top, deep = find_fault_free(board), nested(900, find_fault_free, board)
        assert deep == top and top.status == status, board


class TestFailedStateMemo:
    @pytest.mark.parametrize("topo,a,b", [("rectangle", 64, 5), ("rectangle", 64, 6), ("cylinder", 64, 5)])
    def test_boards_with_over_64_curves_found(self, topo, a, b):
        # more than 64 curves each, so the crossed masks the memo keeps are wider than a machine word
        board = build_board(topo, a, b)
        outcome = find_fault_free(board)
        assert outcome.status == "found"
        assert verify(board, outcome.witness).fault_free

    def test_hits_pinned(self):
        outcome = find_fault_free(build_board("rectangle", 6, 6))
        assert (outcome.status, outcome.nodes, outcome.pruned, outcome.memo_hits) == ("exhausted-none", 600, 226, 89)
        assert search.SearchOutcome("found", None, 1).memo_hits == 0

    def test_memo_stays_within_its_bound(self, monkeypatch):
        """Each generation holds at most MEMO_GENERATION crossed masks, read at every line the search runs."""
        monkeypatch.setattr(search, "MEMO_GENERATION", 16)
        sizes = []

        def on_line(frame, event, arg):
            names = frame.f_locals
            if event == "line" and "young" in names and "old" in names:
                sizes.append(tuple(sum(map(len, names[name].values())) for name in ("young", "old")))
            return on_line

        def on_call(frame, event, arg):
            if frame.f_code.co_name == "_traverse" and frame.f_code.co_filename == search.__file__:
                return on_line
            return None

        sys.settrace(on_call)
        try:
            outcome = find_fault_free(build_board("rectangle", 6, 6), prune=False)
        finally:
            sys.settrace(None)
        assert outcome.status == "exhausted-none" and outcome.memo_hits > 0
        assert (outcome.nodes, outcome.memo_hits) == (13701, 1603)  # 19,672 and 1,436 if the old generation went unread
        assert len(sizes) >= outcome.nodes + outcome.memo_hits
        assert max(max(pair) for pair in sizes) == 16  # full generations were kept, and none grew past 16
        retired = sum(later[0] < earlier[0] for earlier, later in zip(sizes, sizes[1:]))
        assert retired > 1  # the young generation was retired more than once


def column_step(board, key):
    """An edge key moved one column left along the glue; across the Moebius seam the rows flip."""
    axis, line, offset = key
    twisted = board.topology is Topology.MOBIUS
    if axis == "h":
        return (axis, line, offset - 1) if offset else (axis, board.a - line if twisted else line, board.b - 1)
    if line == 1 and twisted:
        return axis, 0, board.a - 1 - offset
    return axis, (line - 1) % board.b, offset


def cell_step(board, cell):
    r, c = cell
    return (r, c - 1) if c else (board.a - 1 - r if board.topology is Topology.MOBIUS else r, board.b - 1)


WRAPPED = (Topology.CYLINDER, Topology.TORUS, Topology.MOBIUS)


class TestOneRootMove:
    def test_some_shift_of_every_fault_free_tiling_holds_the_root_edge(self):
        """The lemma behind the search's one root move, checked tiling by tiling to area 20."""
        checked = 0
        for board in boards_upto(20, max_area=20, topologies=WRAPPED):
            if board.a == 1:
                continue
            by_key = {p.edge: p for p in placements(board)}
            step = {}
            for p in placements(board):
                image = by_key[column_step(board, p.edge)]
                assert sorted(image.cells) == sorted(cell_step(board, cell) for cell in p.cells), (board, p)
                step[p.edge] = image
            period = 2 * board.b if board.topology is Topology.MOBIUS else board.b  # the glide flips rows each lap
            for tiling in enumerate_fault_free(board):
                dominoes = tiling.dominoes
                for _ in range(period):
                    if any(p.edge == ("h", 1, 0) for p in dominoes):
                        break
                    dominoes = frozenset(step[p.edge] for p in dominoes)
                else:
                    pytest.fail(f"no shift of {sorted(p.edge for p in tiling.dominoes)} on {board} holds ('h', 1, 0)")
                assert verify(board, Tiling(board, dominoes)).fault_free, board
                checked += 1
        assert checked == 86

    def test_the_first_root_move_is_the_root_edge(self):
        for board in boards_upto(24, topologies=WRAPPED):
            if board.a > 1:
                for prune in (True, False):
                    assert next(_Geometry(board).row(0, prune))[2] == ("h", 1, 0), (board, prune)

    def test_another_first_move_raises(self, monkeypatch):
        row = _Geometry.row

        def root_reversed(geo, i, prune):
            moves = [*row(geo, i, prune)]
            return reversed(moves) if i == 0 else iter(moves)

        monkeypatch.setattr(_Geometry, "row", root_reversed)
        board = build_board("cylinder", 4, 6)
        for prune in (True, False):
            with pytest.raises(InvariantError, match="is not edge"):
                find_fault_free(board, prune=prune)
