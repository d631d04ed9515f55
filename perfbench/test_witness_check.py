"""Tests for the independent witness checker.

Run from the repository root: PYTHONPATH=src python3 -m pytest perfbench -q
The package only supplies valid witnesses and, for mutated ones, the verdict
of its own verify() to compare against.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from fault_atlas import Tiling, build_board, classify, encode, placements, verify, witness  # noqa: E402
from witness_check import WitnessRejected, check_document, check_text  # noqa: E402

# Boards whose witnesses have flips that empty, between them, an internal
# line, the seam (torus 8'x7'), the torus row edge (9'x6') and a Moebius
# line pair {1, 3} (4"x3).
FLIP_BOARDS = [("rectangle", 5, 6), ("cylinder", 6, 6), ("torus", 8, 7), ("torus", 9, 6), ("mobius", 4, 3)]


def _doc(tiling: Tiling) -> dict:
    return json.loads(encode(tiling))


def _flips(tiling: Tiling):
    """Tilings made by re-laying two dominoes that together cover a 2x2 block."""
    by_cells = {}
    for p in placements(tiling.board):
        by_cells.setdefault(frozenset(p.cells), []).append(p)
    for d1, d2 in itertools.combinations(sorted(tiling.dominoes, key=lambda p: p.edge.key()), 2):
        four = set(d1.cells) | set(d2.cells)
        for pair in itertools.combinations(sorted(four), 2):
            rest = frozenset(four - set(pair))
            for p in by_cells.get(frozenset(pair), []):
                for q in by_cells.get(rest, []):
                    if {p, q} != {d1, d2}:
                        yield Tiling(tiling.board, (tiling.dominoes - {d1, d2}) | {p, q})


def test_accepts_every_program_witness_up_to_10():
    checked = 0
    for topology in ("rectangle", "cylinder", "torus", "mobius"):
        for a in range(1, 11):
            for b in range(1, 11):
                board = build_board(topology, a, b)
                if classify(board).tileable:
                    assert check_text(encode(witness(board)), topology, a, b) == a * b // 2
                    checked += 1
    assert checked > 100


def test_rejects_dropped_domino():
    doc = _doc(witness(build_board("cylinder", 4, 6)))
    doc["dominoes"].pop(3)
    with pytest.raises(WitnessRejected, match="covered 0 times"):
        check_document(doc, "cylinder", 4, 6)


@pytest.mark.parametrize("topology,a,b", FLIP_BOARDS)
def test_rejects_moved_tiles_that_leave_a_fold_line_uncrossed(topology, a, b):
    board = build_board(topology, a, b)
    rejected = 0
    for mutated in _flips(witness(board)):
        report = verify(board, mutated)
        assert report.matching_valid
        if report.fault_free:
            check_document(_doc(mutated), topology, a, b)
        else:
            with pytest.raises(WitnessRejected, match="not crossed"):
                check_document(_doc(mutated), topology, a, b)
            rejected += 1
    assert rejected > 0


def test_twist_pairs_line_l_with_line_a_minus_l():
    # On 4"x5 some flips leave line 1 (or 3) uncrossed while its partner
    # across the twist is crossed; the tiling stays fault-free.
    board = build_board("mobius", 4, 5)
    seen = 0
    for mutated in _flips(witness(board)):
        lines = {p.edge.line for p in mutated.dominoes if p.edge.axis == "h"}
        if verify(board, mutated).fault_free and (1 in lines) != (3 in lines):
            check_document(_doc(mutated), "mobius", 4, 5)
            seen += 1
    assert seen > 0


def test_rejects_file_written_for_another_board():
    text = encode(witness(build_board("cylinder", 4, 6)))
    for other in [("torus", 4, 6), ("cylinder", 6, 4), ("cylinder", 4, 8)]:
        with pytest.raises(WitnessRejected, match="written for board"):
            check_text(text, *other)


def test_rejects_truncated_json():
    text = encode(witness(build_board("rectangle", 5, 6)))
    with pytest.raises(WitnessRejected, match="not valid JSON"):
        check_text(text[: len(text) // 2], "rectangle", 5, 6)
