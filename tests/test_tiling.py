"""Verification reports and the witness document format."""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap

import pytest

from fault_atlas import (
    InvalidWitnessError,
    Tiling,
    WitnessDecodeError,
    build_board,
    decode,
    decode_for_board,
    encode,
    fault_curves,
    find_fault_free,
    find_tiling,
    verify,
)
from fault_atlas.tiling import tiling_from_edges
from conftest import package_env


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
        outcome = find_tiling(board)
        assert outcome.status == "found"
        report = verify(board, outcome.witness)
        assert report.matching_valid and not report.fault_free

    def test_foreign_placement_rejected(self, witness_5x6):
        other = build_board("rectangle", 5, 8)
        with pytest.raises(InvalidWitnessError):
            verify(other, witness_5x6)

    def test_incomplete_tiling_reports_uncovered(self):
        board = build_board("rectangle", 2, 2)
        tiling = tiling_from_edges(board, [("v", 1, 0)])
        report = verify(board, tiling)
        assert not report.matching_valid
        assert report.uncovered_cells == ((1, 0), (1, 1))
        assert not report.fault_free

    def test_crossing_counts_sum_to_capacity(self):
        for topo, a, b in [("rectangle", 5, 6), ("cylinder", 4, 6),
                           ("torus", 4, 4), ("mobius", 4, 3), ("mobius", 5, 4)]:
            board = build_board(topo, a, b)
            w = find_fault_free(board).witness
            report = verify(board, w)
            assert sum(report.curve_crossings.values()) == board.capacity


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
