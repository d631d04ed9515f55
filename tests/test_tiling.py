"""Verification reports and the witness document format."""

from __future__ import annotations

import itertools
import json
import subprocess
import sys
import textwrap
from collections import Counter

import pytest

from fault_atlas import (
    InvalidWitnessError,
    Placement,
    Tiling,
    Topology,
    WitnessDecodeError,
    build_board,
    classify,
    decode,
    decode_for_board,
    encode,
    fault_curves,
    find_fault_free,
    placements,
    verify,
    witness,
)
from fault_atlas.tiling import _verify_keys, tiling_from_edges
from conftest import MALFORMED_DOCUMENTS, brick_tiling, package_env


def reference_encode(tiling: Tiling) -> str:
    """The canonical document as the JSON encoder pretty-prints it; encode() must match it byte for byte."""
    doc = {
        "topology": tiling.board.topology.value,
        "a": tiling.board.a,
        "b": tiling.board.b,
        "dominoes": [
            {
                "edge": [p.edge.axis, p.edge.line, p.edge.offset],
                "cells": [list(p.cells[0]), list(p.cells[1])],
            }
            for p in sorted(tiling.dominoes, key=lambda p: p.edge.key())
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


class TestVerify:
    def test_two_horizontal_dominoes_leave_center_fold(self):
        board = build_board("rectangle", 2, 2)
        tiling = tiling_from_edges(board, [("v", 1, 0), ("v", 1, 1)])
        report = verify(board, tiling)
        assert report.matching_valid
        uncrossed = [fault_curves(board)[cid] for cid in report.uncrossed_curves]
        assert [(c.axis, sorted(c.lines)) for c in uncrossed] == [("horizontal", [1])]
        assert not report.fault_free

    def test_5x6_search_witness_is_fault_free(self, witness_5x6):
        report = verify(witness_5x6.board, witness_5x6)
        assert report.fault_free

    def test_any_complete_6x6_tiling_has_a_fault(self):
        board = build_board("rectangle", 6, 6)
        report = verify(board, brick_tiling(board))
        assert report.matching_valid and not report.fault_free

    def test_foreign_placement_rejected(self, witness_5x6):
        other = build_board("rectangle", 5, 8)
        with pytest.raises(InvalidWitnessError):
            verify(other, witness_5x6)

    def test_placement_cells_checked_against_edge(self):
        board = build_board("rectangle", 2, 2)
        good = tiling_from_edges(board, [("v", 1, 0), ("v", 1, 1)])
        plc = next(p for p in good.dominoes if p.edge.offset == 0)
        reversed_cells = Tiling(board, good.dominoes - {plc} | {Placement(plc.edge, plc.cells[::-1])})
        assert verify(board, reversed_cells).fault_free == verify(board, good).fault_free
        wrong_cells = Tiling(board, good.dominoes - {plc} | {Placement(plc.edge, ((0, 0), (1, 0)))})
        with pytest.raises(InvalidWitnessError):
            verify(board, wrong_cells)

    def test_edge_key_core_reports_as_verify(self):
        for topo, a, b in [("rectangle", 5, 6), ("cylinder", 4, 6), ("torus", 4, 4),
                           ("mobius", 4, 3), ("mobius", 5, 4)]:
            board = build_board(topo, a, b)
            for tiling in (find_fault_free(board).witness, brick_tiling(board)):
                keys = [p.edge.key() for p in tiling.dominoes]
                assert _verify_keys(board, keys) == verify(board, tiling)
                assert _verify_keys(board, keys[1:]) == verify(board, tiling_from_edges(board, keys[1:]))
        with pytest.raises(InvalidWitnessError):
            _verify_keys(build_board("rectangle", 2, 2), [("v", 2, 0)])

    def test_incomplete_tiling_reports_uncovered(self):
        board = build_board("rectangle", 2, 2)
        tiling = tiling_from_edges(board, [("v", 1, 0)])
        report = verify(board, tiling)
        assert not report.matching_valid
        assert report.uncovered_cells == ((1, 0), (1, 1))
        assert not report.fault_free

    @pytest.mark.parametrize("topo", list(Topology), ids=lambda t: t.value)
    def test_defect_listings_match_a_reference(self, topo):
        # Dropped, added and overlapping dominoes, and pairs of placements: on odd-area
        # boards a pair can leave exactly one cell uncovered or doubly covered.
        def listing(board, keys):
            counts = Counter(cell for key in keys for cell in cells_of[key])
            cells = [(r, c) for r in range(board.a) for c in range(board.b)]
            return (tuple(x for x in cells if counts[x] == 0), tuple(x for x in cells if counts[x] > 1))

        checked = 0
        for a in range(1, 6):
            for b in range(1, 6):
                board = build_board(topo, a, b)
                cells_of = {p.edge.key(): p.cells for p in placements(board)}
                every = sorted(cells_of)
                corrupted = [list(pair) for pair in itertools.combinations(every, 2)]
                if classify(board).tileable:
                    full = sorted(p.edge.key() for p in witness(board).dominoes)
                    for i, key in enumerate(full):
                        rest = full[:i] + full[i + 1:]
                        corrupted.append(rest)  # a domino dropped
                        corrupted += [rest + [other] for other in every if other != key]  # one moved
                    corrupted += [full + [other] for other in every if other not in full]  # one added
                for keys in corrupted:
                    report = _verify_keys(board, keys)
                    uncovered, doubled = listing(board, keys)
                    assert (report.uncovered_cells, report.doubly_covered_cells) == (uncovered, doubled), \
                        (board, keys)
                    assert report.matching_valid == (not uncovered and not doubled)
                    checked += 1
        assert checked > 1000

    def test_crossing_counts_sum_to_capacity(self):
        for topo, a, b in [("rectangle", 5, 6), ("cylinder", 4, 6),
                           ("torus", 4, 4), ("mobius", 4, 3), ("mobius", 5, 4)]:
            board = build_board(topo, a, b)
            w = find_fault_free(board).witness
            report = verify(board, w)
            assert sum(report.curve_crossings.values()) == board.capacity


class TestEncoderMatchesReference:
    def test_every_witness_up_to_8(self):
        checked = 0
        for topo in Topology:
            for a in range(1, 9):
                for b in range(1, 9):
                    board = build_board(topo, a, b)
                    if classify(board).tileable:
                        tiling = witness(board)
                        assert encode(tiling) == reference_encode(tiling), board
                        checked += 1
        assert checked > 40

    def test_zero_dominoes(self):
        tiling = decode('{"topology":"rectangle","a":1,"b":2,"dominoes":[]}')
        assert not tiling.dominoes
        assert encode(tiling) == reference_encode(tiling)
        assert '"dominoes": []' in encode(tiling)

    def test_torus_row_edge_domino(self):
        tiling = tiling_from_edges(build_board("torus", 4, 4), [("h", 0, 1)])
        assert next(iter(tiling.dominoes)).cells == ((3, 1), (0, 1))
        assert encode(tiling) == reference_encode(tiling)

    def test_one_wide_mobius_seam_domino(self):
        tiling = tiling_from_edges(build_board("mobius", 4, 1), [("v", 0, 0), ("v", 0, 1)])
        assert {p.cells for p in tiling.dominoes} == {((0, 0), (3, 0)), ((1, 0), (2, 0))}
        assert encode(tiling) == reference_encode(tiling)
        assert decode(encode(tiling)) == tiling


class TestWitnessFormat:
    def test_round_trip_identity(self, witness_5x6):
        text = encode(witness_5x6)
        again = decode(text)
        assert again == witness_5x6
        assert encode(again) == text  # byte-exact on canonical documents

    def test_round_trip_all_topologies(self):
        for topo, a, b in [("cylinder", 4, 6), ("torus", 4, 4), ("mobius", 4, 3)]:
            board = build_board(topo, a, b)
            w = find_fault_free(board).witness
            assert decode(encode(w)) == w

    def test_wrong_domino_count_still_parses(self):
        board = build_board("rectangle", 2, 2)
        tiling = tiling_from_edges(board, [("v", 1, 0)])
        parsed = decode(encode(tiling))
        assert len(parsed.dominoes) == 1
        assert not verify(board, parsed).matching_valid

    def test_mobius_wrap_encodes_via_seam_edge(self):
        board = build_board("mobius", 4, 3)
        w = find_fault_free(board).witness
        doc = json.loads(encode(w))
        wraps = [d for d in doc["dominoes"] if d["edge"][1] == 0]
        assert wraps, "expected at least one wrapping tile on a fault-free 4-by-3 strip"
        for d in wraps:
            axis, line, offset = d["edge"]
            assert axis == "v" and line == 0
            r = offset
            assert sorted(map(tuple, d["cells"])) == sorted([(r, 2), (3 - r, 0)])
        assert decode(encode(w)) == w

    def test_syntax_error(self):
        with pytest.raises(WitnessDecodeError):
            decode("{not json")

    def test_deep_nesting_is_not_valid_json(self):
        with pytest.raises(WitnessDecodeError, match="not valid JSON"):
            decode("[" * 200_000 + "]" * 200_000)

    @pytest.mark.parametrize("text,message", MALFORMED_DOCUMENTS)
    def test_malformed_document_is_a_decode_error(self, text, message):
        with pytest.raises(WitnessDecodeError, match=message):
            decode(text)

    def test_unknown_edge(self):
        doc = {"topology": "rectangle", "a": 2, "b": 2,
               "dominoes": [{"edge": ["v", 7, 0], "cells": [[0, 0], [0, 1]]}]}
        with pytest.raises(WitnessDecodeError):
            decode(json.dumps(doc))

    def test_cells_must_match_edge(self):
        doc = {"topology": "rectangle", "a": 2, "b": 2,
               "dominoes": [{"edge": ["v", 1, 0], "cells": [[0, 0], [1, 0]]}]}
        with pytest.raises(WitnessDecodeError):
            decode(json.dumps(doc))

    @pytest.mark.parametrize("cells", [[["h", 0], [0, 1]], [[None, 0], [0, 1]], [[0, 0], [0, "1"]]])
    def test_mistyped_cells_are_a_decode_error(self, cells):
        doc = {"topology": "rectangle", "a": 1, "b": 2,
               "dominoes": [{"edge": ["v", 1, 0], "cells": cells}]}
        with pytest.raises(WitnessDecodeError, match="disagree"):
            decode(json.dumps(doc))

    @pytest.mark.parametrize("cells", [[[0, False], [0, True]], [[0, 0.0], [0, 1]], [[False, 0], [0, 1]]])
    def test_cells_equal_to_ints_but_not_ints_are_a_decode_error(self, cells):
        # False == 0, True == 1 and 0.0 == 0, so only the type tells these from the edge's cells
        doc = {"topology": "rectangle", "a": 1, "b": 2,
               "dominoes": [{"edge": ["v", 1, 0], "cells": cells}]}
        with pytest.raises(WitnessDecodeError, match="disagree"):
            decode(json.dumps(doc))

    def test_duplicate_edge(self):
        doc = {"topology": "rectangle", "a": 2, "b": 2,
               "dominoes": [{"edge": ["v", 1, 0], "cells": [[0, 0], [0, 1]]},
                            {"edge": ["v", 1, 0], "cells": [[0, 0], [0, 1]]}]}
        with pytest.raises(WitnessDecodeError):
            decode(json.dumps(doc))

    def test_bad_dimensions(self):
        doc = {"topology": "rectangle", "a": 0, "b": 2, "dominoes": []}
        with pytest.raises(WitnessDecodeError):
            decode(json.dumps(doc))

    def test_decode_for_board_rejects_mismatch(self, witness_5x6):
        with pytest.raises(WitnessDecodeError):
            decode_for_board(encode(witness_5x6), build_board("rectangle", 5, 8))

    @pytest.mark.parametrize("field,value", [("a", True), ("b", False), ("a", 2.0), ("b", "2")])
    def test_dimensions_must_be_integers(self, field, value):
        doc = {"topology": "rectangle", "a": 2, "b": 2, "dominoes": []}
        doc[field] = value
        with pytest.raises(WitnessDecodeError):
            decode(json.dumps(doc))

    @pytest.mark.parametrize("edge", [
        [["h"], 1, 0], [1, 1, 0], ["v", True, 0], ["v", 1.0, 0], ["v", "1", 0],
        ["v", 1, False], ["v", 1, 0.0], ["v", 1, [0]],
    ])
    def test_edge_fields_must_be_typed(self, edge):
        doc = {"topology": "rectangle", "a": 2, "b": 2,
               "dominoes": [{"edge": edge, "cells": [[0, 0], [0, 1]]}]}
        with pytest.raises(WitnessDecodeError):
            decode(json.dumps(doc))

    def test_huge_claimed_board_costs_only_the_document(self):
        # In a child capped at 1 GiB of address space, so a decode that
        # allocates per cell fails there instead of exhausting the machine.
        script = textwrap.dedent("""
            import json, resource, time, tracemalloc
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
            from fault_atlas import decode
            doc = {"topology": "torus", "a": 10**9, "b": 10**9,
                   "dominoes": [{"edge": ["h", 0, 5], "cells": [[10**9 - 1, 5], [0, 5]]}]}
            text = json.dumps(doc)
            tracemalloc.start()
            start = time.perf_counter()
            tiling = decode(text)
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
            print(tiling.board.area == 10**18, len(tiling.dominoes), peak, elapsed)
        """)
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=package_env(), timeout=60)
        assert done.returncode == 0, done.stderr[-500:]
        same_area, count, peak, elapsed = done.stdout.split()
        assert same_area == "True" and count == "1"
        assert int(peak) < 100_000
        assert float(elapsed) < 1.0
