"""Boards, placements, fault curves, wrap colors."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import fault_atlas
from fault_atlas import (
    CrossingEdge,
    InvalidDimensionError,
    Placement,
    Topology,
    build_board,
    build_chart,
    build_parity_system,
    classify,
    counting_feasible,
    fault_curves,
    find_fault_free,
    placements,
    verify,
)
from fault_atlas.classify import FAMILIES
from fault_atlas.topology import _curve_id, _edge_cells
from conftest import base_witnesses, boards_upto, walk_horizontal_locus


class TestBuildBoard:
    def test_rectangle_6x6(self):
        board = build_board("rectangle", 6, 6)
        assert board.area == 36
        assert len(fault_curves(board)) == 10

    def test_cylinder_5x6_has_one_more_curve_than_rectangle(self):
        cyl = build_board("cylinder", 5, 6)
        curves = fault_curves(cyl)
        assert len(curves) == 10
        assert sum(1 for c in curves if c.axis == "horizontal") == 4
        assert sum(1 for c in curves if c.axis == "vertical") == 6
        assert len(fault_curves(build_board("rectangle", 5, 6))) == 9

    def test_torus_6x5_has_two_more_curves_than_rectangle(self):
        assert len(fault_curves(build_board("torus", 6, 5))) == 11

    def test_mobius_6x4_pairing(self):
        curves = fault_curves(build_board("mobius", 6, 4))
        horizontal = sorted(sorted(c.lines) for c in curves if c.axis == "horizontal")
        assert horizontal == [[1, 5], [2, 4], [3]]
        assert sum(1 for c in curves if c.axis == "vertical") == 4

    @pytest.mark.parametrize("a,b", [(0, 5), (5, 0), (-1, 3), (0, 0)])
    def test_invalid_dimensions(self, a, b):
        with pytest.raises(InvalidDimensionError):
            build_board("rectangle", a, b)

    @pytest.mark.parametrize("a,b", [(True, 2), (2, False), (True, True), (2.0, 2)])
    def test_non_integer_dimensions(self, a, b):
        with pytest.raises(InvalidDimensionError):
            build_board("rectangle", a, b)


class TestPlacements:
    def test_rectangle_2x2(self):
        assert len(placements(build_board("rectangle", 2, 2))) == 4

    def test_cylinder_1x2_parallel_edges(self):
        plcs = placements(build_board("cylinder", 1, 2))
        assert len(plcs) == 2
        assert all(set(p.cells) == {(0, 0), (0, 1)} for p in plcs)
        assert {p.edge.key() for p in plcs} == {("v", 0, 0), ("v", 1, 0)}

    def test_mobius_4x1_wrap_pairs(self):
        plcs = placements(build_board("mobius", 4, 1))
        wraps = [p for p in plcs if p.edge.line == 0]
        verticals = [p for p in plcs if p.edge.axis == "h"]
        assert len(verticals) == 3
        assert sorted(sorted(r for (r, _) in p.cells) for p in wraps) == [[0, 3], [1, 2]]

    def test_cylinder_2x1_degenerate_wrap_excluded(self):
        plcs = placements(build_board("cylinder", 2, 1))
        assert len(plcs) == 1
        assert plcs[0].edge.key() == ("h", 1, 0)

    def test_no_placement_joins_a_cell_to_itself(self):
        for board in boards_upto(8):
            for p in placements(board):
                assert p.cells[0] != p.cells[1], (board, p)

    def test_mobius_wrap_rule(self):
        board = build_board("mobius", 5, 3)
        wraps = {p.edge.offset: set(p.cells) for p in placements(board) if p.edge.line == 0}
        for r in range(5):
            assert wraps[r] == {(r, 2), (4 - r, 0)}


class TestFaultCurves:
    def test_rectangle_5x6_count(self):
        assert len(fault_curves(build_board("rectangle", 5, 6))) == 9

    def test_mobius_7x2(self):
        curves = fault_curves(build_board("mobius", 7, 2))
        horizontal = sorted(sorted(c.lines) for c in curves if c.axis == "horizontal")
        assert horizontal == [[1, 6], [2, 5], [3, 4]]
        assert sum(1 for c in curves if c.axis == "vertical") == 2

    def test_torus_2x2_all_caps_two(self):
        curves = fault_curves(build_board("torus", 2, 2))
        assert len(curves) == 4
        assert all(len(c.crossing_edges) == 2 for c in curves)

    def test_curve_count_formulas_up_to_20(self):
        for board in boards_upto(20, topologies=[Topology.RECTANGLE]):
            assert len(fault_curves(board)) == (board.a - 1) + (board.b - 1)
        for board in boards_upto(20, topologies=[Topology.CYLINDER]):
            assert len(fault_curves(board)) == (board.a - 1) + board.b
        for board in boards_upto(20, topologies=[Topology.TORUS]):
            assert len(fault_curves(board)) == board.a + board.b
        for board in boards_upto(20, topologies=[Topology.MOBIUS]):
            a = board.a
            expected_h = a // 2 if a % 2 == 0 else (a - 1) // 2
            assert len(fault_curves(board)) == expected_h + board.b

    def test_every_edge_in_exactly_one_curve(self):
        for board in boards_upto(8):
            curves = fault_curves(board)
            seen = {}
            for curve in curves:
                for edge in curve.crossing_edges:
                    assert edge not in seen, (board, edge)
                    seen[edge] = curve.id
            for p in placements(board):
                assert p.edge in seen, (board, p)
                assert _curve_id(board, p.edge.axis, p.edge.line) == seen[p.edge]

    def test_mobius_horizontal_curves_match_fold_walk(self):
        for board in boards_upto(8, topologies=[Topology.MOBIUS, Topology.CYLINDER, Topology.TORUS]):
            start_lines = range(board.a) if board.topology is Topology.TORUS else range(1, board.a)
            walked = set()
            for line in start_lines:
                segs = frozenset(walk_horizontal_locus(board, line))
                walked.add(segs)
            from_curves = {
                frozenset(("h", line, c) for line in curve.lines for c in range(board.b))
                for curve in fault_curves(board)
                if curve.axis == "horizontal"
            }
            assert walked == from_curves, board


class TestEdgeGeometry:
    """The arithmetic edge helpers that verify and decode use instead of tables."""

    def test_helpers_agree_with_tables(self):
        for board in boards_upto(10):
            cells_of = {p.edge.key(): p.cells for p in placements(board)}
            curve_of_edge = {e.key(): c.id for c in fault_curves(board) for e in c.crossing_edges}
            probe = range(-1, max(board.a, board.b) + 2)
            for axis in ("h", "v", "x"):
                for line in probe:
                    for offset in probe:
                        key = (axis, line, offset)
                        cells = _edge_cells(board, *key)
                        assert cells == cells_of.get(key), (board, key)
                        if cells is not None:
                            assert _curve_id(board, axis, line) == curve_of_edge[key], (board, key)
            assert _curve_id(board, "v", board.b) == len(fault_curves(board)), board


class TestCellColor:
    """A Moebius wrap domino joins two cells of the (r + c) % 2 checkerboard."""

    def test_mobius_wrap_same_color_when_both_even(self):
        for a in (2, 4, 6, 8):
            for b in (2, 4, 6, 8):
                board = build_board("mobius", a, b)
                for p in placements(board):
                    if p.edge.line == 0:
                        c1, c2 = ((r + c) % 2 for r, c in p.cells)
                        assert c1 == c2, (board, p)

    def test_mobius_wrap_colors_differ_when_parity_differs(self):
        for a, b in [(2, 3), (3, 2), (4, 5), (5, 4), (6, 7)]:
            board = build_board("mobius", a, b)
            for p in placements(board):
                if p.edge.line == 0:
                    c1, c2 = ((r + c) % 2 for r, c in p.cells)
                    assert c1 != c2, (board, p)


@pytest.mark.parametrize("topo", list(Topology))
def test_records_equal_and_hash_as_their_field_tuples(topo):
    # Witness bytes follow frozenset order, which follows these hashes.
    for a, b in [(1, 2), (2, 1), (3, 4), (4, 6), (5, 5)]:
        for p in placements(build_board(topo, a, b)):
            k = p.edge.key()
            edge = CrossingEdge(*k)
            assert type(k) is tuple and edge == k and hash(edge) == hash(k)
            assert Placement(edge, p.cells) == p
            assert hash(Placement(edge, p.cells)) == hash((k, p.cells))
            with pytest.raises(AttributeError):
                edge.line = 0
            with pytest.raises(AttributeError):
                p.cells = p.cells[::-1]
    # Every other public record too; the ones holding a dict have no hash.
    board, tiling = base_witnesses(topo)[0]
    records = [board, fault_curves(board)[0], tiling, verify(board, tiling), classify(board),
               FAMILIES[topo][0], find_fault_free(board), build_parity_system(board),
               counting_feasible(board), build_chart(topo, 4)]
    for record in records:
        fields = tuple(record)
        assert type(fields) is tuple and record == fields and len(fields) == len(record._fields)
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
        if not any(isinstance(field, dict) for field in fields):
            assert hash(record) == hash(fields)


def test_every_memo_is_bounded():
    memos = []
    for info in pkgutil.iter_modules(fault_atlas.__path__):
        module = importlib.import_module(f"fault_atlas.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_info") and obj.__module__ == module.__name__:
                memos.append(name)
                assert obj.cache_info().maxsize is not None, f"{info.name}.{name}"
    assert {"placements", "fault_curves", "_base_witness"} <= set(memos)
