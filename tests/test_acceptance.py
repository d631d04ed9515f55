"""Acceptance suite: one test per criterion, each printing a pass line.

Budgets and tolerances are asserted as stated; expected values tagged to the
source material were checked against it, derived values against the
independent oracles in conftest.
"""

from __future__ import annotations

import time
from pathlib import Path

from fault_atlas import (
    Topology,
    build_board,
    classify,
    counting_feasible,
    fault_free_exists_oracle,
    find_fault_free,
    min_required_tiles,
    verify,
    witness,
)
from fault_atlas.charts import build_chart, chart_text
from fault_atlas.witnesses import WitnessStore
from fault_atlas.expansion import expand
from conftest import base_witnesses, system_violations

GOLDEN = Path(__file__).parent / "golden"


def _report(n: int, label: str) -> None:
    print(f"ACCEPTANCE {n}: PASS - {label}")


def test_criterion_1_counting_regression():
    start = time.perf_counter()
    expected = [
        ("rectangle", 6, 6, 20),
        ("cylinder", 5, 6, 17),
        ("cylinder", 6, 5, 12),
        ("cylinder", 4, 5, 9),
        ("torus", 6, 5, 14),
    ]
    for topo, a, b, want in expected:
        got = min_required_tiles(build_board(topo, a, b))
        assert got == want, (topo, a, b, got, want)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"counting regression took {elapsed:.3f}s"
    _report(1, f"five exact minimum-required values in {elapsed * 1000:.0f}ms")


def test_criterion_2_counting_verdicts_match_classification():
    start = time.perf_counter()
    boards = 0
    for topo in Topology:
        for a in range(1, 21):
            for b in range(1, 21):
                board = build_board(topo, a, b)
                v = classify(board)
                if topo is Topology.RECTANGLE and not v.tileable and (a, b) != (6, 6):
                    continue
                boards += 1
                report = counting_feasible(board)
                assert report.feasible is v.tileable, (board, v.family_id, report)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"counting verdicts took {elapsed:.1f}s"
    _report(2, f"{boards} boards, counting verdict == classification, {elapsed:.1f}s")


def test_criterion_3_chart_reproduction():
    for topo in ("cylinder", "torus", "mobius"):
        text = chart_text(build_chart(topo, 20))
        golden = (GOLDEN / f"{topo}_20.txt").read_text(encoding="utf-8")
        assert text == golden, f"{topo} chart differs from golden file"
    cyl = build_chart("cylinder", 20).cells
    assert all(cyl[3][b - 1] == "X" for b in range(6, 21, 2))
    assert all(cyl[3][b - 1] == "O" for b in [1, 2, 3, 4, 5] + list(range(7, 21, 2)))
    torus = build_chart("torus", 20).cells
    assert torus[7][4] == "O" and torus[9][4] == "X"
    mob = build_chart("mobius", 20).cells
    assert mob[5][3] == "O" and mob[5][5] == "X" and mob[7][3] == "X"
    _report(3, "three 20x20 charts byte-identical to goldens, spot values hold")


def test_criterion_4_oracle_equivalence_area_48():
    start = time.perf_counter()
    boards = 0
    for topo in Topology:
        for a in range(1, 49):
            for b in range(1, 49):
                if a * b > 48:
                    continue
                board = build_board(topo, a, b)
                boards += 1
                assert fault_free_exists_oracle(board) is classify(board).tileable, board
    elapsed = time.perf_counter() - start
    assert elapsed < 1800.0, f"oracle sweep took {elapsed:.1f}s"
    _report(4, f"classification equals exhaustive oracle on {boards} boards, {elapsed:.1f}s")


def test_criterion_5_witnesses_up_to_12(tmp_path):
    store = WitnessStore(tmp_path / "cache")
    boards = 0
    for topo in Topology:
        for a in range(1, 13):
            for b in range(1, 13):
                board = build_board(topo, a, b)
                if not classify(board).tileable:
                    continue
                boards += 1
                tiling = witness(board, store=store)
                report = verify(board, tiling)
                assert report.matching_valid, board
                assert not report.uncrossed_curves, board
                violations = system_violations(board, tiling)
                assert violations == [], (board, violations)
                assert sum(report.curve_crossings.values()) == board.capacity
    _report(5, f"witnesses for all {boards} tileable boards <= 12x12, profiles satisfy the system")


def test_criterion_6_expansion_lemma():
    grown_total = 0
    for topo in Topology:
        for board, tiling in base_witnesses(topo):
            for axis in ("rows", "cols"):
                current = tiling
                for _ in range(3):
                    current = expand(current, axis)
                    assert verify(current.board, current).fault_free, (board, axis)
                    grown_total += 1
    _report(6, f"{grown_total} successive expansions re-verified fault-free")


def test_criterion_7_odd_area_parity():
    boards = 0
    for topo in Topology:
        for a in range(1, 21):
            for b in range(1, 21):
                if (a * b) % 2 == 0:
                    continue
                board = build_board(topo, a, b)
                boards += 1
                assert not classify(board).tileable
                ff = find_fault_free(board)
                assert ff.status == "exhausted-none" and ff.nodes == 0
                assert counting_feasible(board).feasible is False
    _report(7, f"{boards} odd-area boards rejected everywhere with zero nodes")


def test_criterion_8_pruning_soundness():
    boards = 0
    for topo in Topology:
        for a in range(1, 25):
            for b in range(1, 25):
                if a * b > 24:
                    continue
                board = build_board(topo, a, b)
                boards += 1
                on = find_fault_free(board, prune=True)
                off = find_fault_free(board, prune=False)
                assert on.status == off.status, board
    _report(8, f"pruning on/off agree on {boards} boards with area <= 24")


def test_criterion_9_determinism(tmp_path):
    charts_one = {t: chart_text(build_chart(t, 20)) for t in ("cylinder", "torus", "mobius")}
    charts_two = {t: chart_text(build_chart(t, 20)) for t in ("cylinder", "torus", "mobius")}
    assert charts_one == charts_two
    picks = [("cylinder", 8, 9), ("torus", 6, 8), ("mobius", 6, 7), ("rectangle", 7, 8)]
    dir_one, dir_two = tmp_path / "one", tmp_path / "two"
    for directory in (dir_one, dir_two):
        store = WitnessStore(directory)
        for topo, a, b in picks:
            witness(build_board(topo, a, b), store=store)
    for topo, a, b in picks:
        board = build_board(topo, a, b)
        one = WitnessStore(dir_one).path_for(board).read_bytes()
        two = WitnessStore(dir_two).path_for(board).read_bytes()
        assert one == two, board
    _report(9, "charts and witness files byte-identical across runs")
