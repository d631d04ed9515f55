"""Band-insertion expansion: grown witnesses must re-verify fault-free."""

from __future__ import annotations

import pytest

from fault_atlas import (
    ExpansionFailedError,
    Tiling,
    build_board,
    expand,
    find_fault_free,
    verify,
    witness,
)
from fault_atlas.expansion import _grow_keys
from fault_atlas.tiling import _edge_keys, tiling_from_edges
from fault_atlas.topology import Topology
from conftest import base_witnesses, brick_tiling, nested


def _witness(topo, a, b):
    outcome = find_fault_free(build_board(topo, a, b))
    assert outcome.status == "found"
    return outcome.witness


class TestExpand:
    def test_rectangle_5x6_rows_gives_7x6(self):
        grown = expand(_witness("rectangle", 5, 6), "rows")
        assert (grown.board.a, grown.board.b) == (7, 6)
        assert verify(grown.board, grown).fault_free

    def test_cylinder_4x6_cols_gives_4x8(self):
        grown = expand(_witness("cylinder", 4, 6), "cols")
        assert (grown.board.a, grown.board.b) == (4, 8)
        assert verify(grown.board, grown).fault_free

    def test_mobius_rows_crosses_the_twist(self):
        grown = expand(_witness("mobius", 4, 3), "rows")
        assert (grown.board.a, grown.board.b) == (6, 3)
        assert verify(grown.board, grown).fault_free

    def test_every_base_expands_once_per_axis(self):
        for topo in Topology:
            for board, tiling in base_witnesses(topo):
                for axis in ("rows", "cols"):
                    grown = expand(tiling, axis)
                    assert verify(grown.board, grown).fault_free, (board, axis)

    def test_preserves_domino_count(self):
        w = _witness("torus", 4, 4)
        grown = expand(w, "cols")
        assert len(grown.dominoes) == len(w.dominoes) + w.board.a

    def test_accepted_cut_was_verified(self, monkeypatch):
        import fault_atlas.expansion as e

        checked = []
        real = e._verify_keys

        def recording(board, keys):
            report = real(board, keys)
            checked.append((board, frozenset(keys), report.fault_free))
            return report

        monkeypatch.setattr(e, "_verify_keys", recording)
        grown = expand(_witness("cylinder", 4, 6), "cols")
        assert checked[-1] == (grown.board, frozenset(p.edge.key() for p in grown.dominoes), True)

    def test_bad_axis(self):
        with pytest.raises(ValueError):
            expand(_witness("rectangle", 5, 6), "diagonal")

    def test_input_must_be_fault_free(self):
        board = build_board("rectangle", 6, 6)
        full = brick_tiling(board)  # valid matching, but has faults
        with pytest.raises(ValueError):
            expand(full, "rows")

    @pytest.mark.parametrize("budget,kind", [("_MAX_LEAVES", "leaf"), ("_MAX_NODES", "node")])
    def test_cut_search_budget(self, monkeypatch, budget, kind):
        import fault_atlas.expansion as e

        monkeypatch.setattr(e, budget, 0)
        with pytest.raises(ExpansionFailedError, match=f"{kind} budget exhausted"):
            expand(_witness("rectangle", 5, 6), "rows")

    def test_isolated_1x2_cannot_expand(self):
        board = build_board("rectangle", 1, 2)
        w = find_fault_free(board).witness
        for axis in ("rows", "cols"):
            with pytest.raises(ExpansionFailedError):
                expand(w, axis)


class TestLongCuts:
    """The cut search keeps each open step's untried positions on a list of its own:
    cuts of a thousand steps and more run to completion."""

    @pytest.mark.parametrize("board", [build_board("rectangle", 1000, 10), build_board("cylinder", 1000, 8),
                                       build_board("torus", 10, 1000), build_board("mobius", 1000, 7)], ids=str)
    def test_witness_chain_verifies(self, board):
        assert verify(board, witness(board)).fault_free

    def test_expand_rows_across_a_thousand_columns(self):
        grown = expand(witness(build_board("rectangle", 6, 1000)), "rows")
        assert (grown.board.a, grown.board.b) == (8, 1000)
        assert verify(grown.board, grown).fault_free

    def test_answer_does_not_depend_on_caller_depth(self):
        board = build_board("rectangle", 6, 96)
        keys = _edge_keys(witness(board))
        grow = lambda b: _grow_keys(b, keys, "rows", 1)
        assert nested(900, grow, board) == grow(board)


class TestBands:
    """k bands at one cut are the tiling that k single-band expansions build."""

    @pytest.mark.parametrize("axis", ["rows", "cols"])
    @pytest.mark.parametrize("topo", list(Topology), ids=lambda t: t.value)
    def test_k_bands_equal_k_steps(self, topo, axis):
        for board, tiling in base_witnesses(topo):
            keys = _edge_keys(tiling)
            step = (board, keys)
            done = 0
            for k in (1, 2, 3, 5, 10):
                while done < k:
                    step = _grow_keys(*step, axis, 1)
                    done += 1
                assert _grow_keys(board, keys, axis, k) == step, (board, axis, k)

    def test_fifty_bands_verify(self):
        for topo in Topology:
            for base, tiling in base_witnesses(topo):
                for axis in ("rows", "cols"):
                    board, keys = _grow_keys(base, _edge_keys(tiling), axis, 50)
                    assert verify(board, tiling_from_edges(board, keys)).fault_free, (base, axis)
