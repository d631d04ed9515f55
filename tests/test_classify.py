"""Closed-form classification rules and their cross-validation."""

from __future__ import annotations

import pytest

from fault_atlas import (
    InvariantError,
    Topology,
    build_board,
    classify,
    counting_feasible,
    fault_free_exists_oracle,
)
from fault_atlas.classify import FAMILIES, base_boards, canonical_dims
from conftest import boards_upto


class TestVerdicts:
    @pytest.mark.parametrize("topo,a,b,tileable", [
        ("cylinder", 4, 6, True),
        ("cylinder", 6, 4, False),
        ("cylinder", 8, 5, True),
        ("cylinder", 5, 6, False),
        ("torus", 8, 5, False),
        ("torus", 10, 5, True),
        ("torus", 5, 4, False),
        ("mobius", 6, 6, True),
        ("mobius", 6, 4, False),
        ("rectangle", 6, 6, False),
        ("rectangle", 5, 6, True),
        ("rectangle", 1, 2, True),
        ("rectangle", 2, 1, True),
        ("rectangle", 1, 4, False),
    ])
    def test_examples(self, topo, a, b, tileable):
        assert classify(build_board(topo, a, b)).tileable is tileable

    def test_cylinder_6x4_family(self):
        v = classify(build_board("cylinder", 6, 4))
        assert not v.tileable
        assert v.family_id == "(4+n)' x 4"

    def test_torus_5x4_canonical_family(self):
        v = classify(build_board("torus", 5, 4))
        assert not v.tileable
        assert v.family_id == "(5+2n)' x 4'"
        assert classify(build_board("torus", 4, 5)).family_id == "(5+2n)' x 4'"

    def test_odd_area_reason(self):
        v = classify(build_board("mobius", 3, 5))
        assert v.reason == "odd-area"

    def test_degenerate_reason(self):
        assert classify(build_board("cylinder", 4, 1)).reason == "degenerate"
        assert classify(build_board("mobius", 1, 4)).reason == "degenerate"


class TestTotality:
    def test_every_board_classifies_up_to_20(self):
        for board in boards_upto(20):
            classify(board)  # raises if any cell is unclassified

    def test_family_membership_is_stable_under_its_steps(self):
        for topo, families in FAMILIES.items():
            for fam in families:
                for a in range(1, 21):
                    for b in range(1, 21):
                        if (a * b) % 2 or not fam.matches(a, b):
                            continue
                        board = build_board(topo, a, b)
                        if classify(board).family_id != fam.id:
                            continue  # an earlier family with the same verdict won
                        verdict = classify(board).tileable
                        if fam.rows_step and a + fam.rows_step <= 20:
                            grown = classify(build_board(topo, a + fam.rows_step, b))
                            assert grown.tileable is verdict, (fam.id, a, b, "rows")
                        if fam.cols_step and b + fam.cols_step <= 20:
                            grown = classify(build_board(topo, a, b + fam.cols_step))
                            assert grown.tileable is verdict, (fam.id, a, b, "cols")

    def test_canonical_dims(self):
        assert canonical_dims(build_board("torus", 4, 9)) == (9, 4)
        assert canonical_dims(build_board("cylinder", 4, 9)) == (4, 9)

    def test_unmatched_even_board_raises_invariant_error(self, monkeypatch):
        # an InvariantError, not an assert, so the check also holds under python -O
        monkeypatch.setitem(FAMILIES, Topology.TORUS, ())
        with pytest.raises(InvariantError, match="no family matches"):
            classify(build_board("torus", 4, 4))


class TestBases:
    def test_base_lists_per_topology(self):
        def dims(topology):
            return sorted((b.a, b.b) for b in base_boards(Topology(topology)))

        assert dims("cylinder") == sorted([(4, 6), (7, 6), (6, 7), (8, 5), (5, 8)])
        assert dims("torus") == sorted([(4, 4), (8, 7), (9, 6), (10, 5)])
        assert dims("mobius") == sorted([(4, 3), (5, 4), (4, 5), (6, 6), (8, 4)])
        assert dims("rectangle") == sorted([(5, 6), (6, 5), (6, 8), (8, 6)])

    def test_bases_classify_tileable(self):
        for topo in Topology:
            for board in base_boards(topo):
                assert classify(board).tileable, board


class TestCrossValidation:
    def test_oracle_agreement_small(self):
        for board in boards_upto(20, max_area=24):
            assert classify(board).tileable == fault_free_exists_oracle(board), board

    def test_necessity_agreement_spot(self):
        for topo, a, b in [("cylinder", 10, 4), ("cylinder", 12, 20), ("torus", 14, 13),
                           ("mobius", 4, 12), ("mobius", 9, 8), ("rectangle", 6, 6)]:
            board = build_board(topo, a, b)
            assert counting_feasible(board).feasible == classify(board).tileable, board
