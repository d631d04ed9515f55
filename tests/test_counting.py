"""Necessity checker: parity system, minimum required tiles, feasibility."""

from __future__ import annotations

import itertools

import pytest

from fault_atlas import (
    Topology,
    build_board,
    build_parity_system,
    check_profile,
    classify,
    counting_feasible,
    fault_curves,
    min_required_tiles,
    profile_of,
)
from conftest import (
    _constraints_ok,
    boards_upto,
    brute_profile_totals,
    enumerate_fault_free,
    enumerated_report,
    measure_profile,
    parity_classes,
)


class TestMinRequired:
    @pytest.mark.parametrize("topo,a,b,expected", [
        ("rectangle", 6, 6, 20),
        ("cylinder", 5, 6, 17),
        ("cylinder", 6, 5, 12),
        ("cylinder", 4, 5, 9),
        ("torus", 6, 5, 14),
    ])
    def test_paper_values(self, topo, a, b, expected):
        assert min_required_tiles(build_board(topo, a, b)) == expected

    def test_rectangle_5x6_equals_capacity(self):
        # frozen from the independent decomposed brute force below
        board = build_board("rectangle", 5, 6)
        assert min_required_tiles(board) == 15 == board.capacity

    def test_rectangle_5x6_brute_force(self):
        # rectangle rows and columns decouple, so minimize each side separately
        def rows_ok(xs):
            padded = (0,) + xs + (0,)
            return all((6 - padded[r] - padded[r + 1]) % 2 == 0 for r in range(5))

        def cols_ok(ys):
            padded = (0,) + ys + (0,)
            return all((5 - padded[c] - padded[c + 1]) % 2 == 0 for c in range(6))

        x_best = min(sum(xs) for xs in itertools.product(range(7), repeat=4)
                     if rows_ok(xs) and all(v >= 1 for v in xs))
        y_best = min(sum(ys) for ys in itertools.product(range(6), repeat=5)
                     if cols_ok(ys) and all(v >= 1 for v in ys))
        assert x_best + y_best == 15

    def test_odd_area_rejected(self):
        with pytest.raises(ValueError):
            min_required_tiles(build_board("rectangle", 3, 5))

    def test_torus_swap_invariance(self):
        for a in range(1, 9):
            for b in range(1, 9):
                if (a * b) % 2:
                    continue
                one = min_required_tiles(build_board("torus", a, b))
                two = min_required_tiles(build_board("torus", b, a))
                assert one == two, (a, b)

    def test_mobius_open_question_minima(self):
        # the full parity system is tighter than the paper's accounting;
        # verdicts agree (infeasible) in every case
        assert min_required_tiles(build_board("mobius", 7, 2)) == 9 > 7
        assert min_required_tiles(build_board("mobius", 6, 4)) == 14 >= 13 > 12


class TestFeasibility:
    def test_cylinder_4x5_classes(self):
        report = counting_feasible(build_board("cylinder", 4, 5))
        assert report.feasible is False
        assert report.capacity == 10
        mins = sorted(lo for lo, _ in report.reachable)
        assert mins[0] == 9 and mins[1] == 14
        # the odd class steps over 10; the even class starts above it
        assert all((10 - lo) % 2 == 1 or lo > 10 for lo, _ in report.reachable)

    def test_torus_6x5(self):
        report = counting_feasible(build_board("torus", 6, 5))
        assert report.feasible is False
        assert report.min_required == 14
        assert sorted(lo for lo, _ in report.reachable)[-1] == 19

    def test_rectangle_5x6_feasible(self):
        report = counting_feasible(build_board("rectangle", 5, 6))
        assert report.feasible is True
        assert report.min_required == report.capacity == 15

    def test_mobius_6x4(self):
        report = counting_feasible(build_board("mobius", 6, 4))
        assert report.feasible is False
        assert report.min_required >= 13 > report.capacity

    def test_mobius_7x2(self):
        report = counting_feasible(build_board("mobius", 7, 2))
        assert report.feasible is False
        assert report.min_required > 7

    def test_torus_4x4_feasible(self):
        report = counting_feasible(build_board("torus", 4, 4))
        assert report.feasible is True

    def test_torus_8x5_minimum_fits_but_capacity_unreachable(self):
        report = counting_feasible(build_board("torus", 8, 5))
        assert report.min_required < report.capacity
        assert report.feasible is False

    def test_odd_area_immediate(self):
        report = counting_feasible(build_board("mobius", 3, 3))
        assert report.feasible is False
        assert report.status == "odd-area"

    def test_uncoverable_curve_yields_infeasible(self):
        report = counting_feasible(build_board("cylinder", 2, 1))
        assert report.feasible is False
        assert report.min_required is None

    @pytest.mark.parametrize("a,b,minimum", [(40, 40, 120), (40, 41, 80), (64, 65, 128)])
    def test_tall_mobius_strips_decided(self, a, b, minimum):
        # one free wrap-pair parity per row pair: 2^19 to 2^32 classes, counted not visited
        board = build_board("mobius", a, b)
        report = counting_feasible(board)
        assert report.status == "ok"
        assert report.feasible is True and classify(board).tileable
        assert report.min_required == minimum == min_required_tiles(board)


class TestSoundness:
    def test_no_false_impossibility_up_to_area_48(self):
        # infeasible must never contradict the exhaustive oracle
        from fault_atlas import fault_free_exists_oracle

        for board in boards_upto(48, max_area=48):
            report = counting_feasible(board)
            if report.feasible is False:
                assert fault_free_exists_oracle(board) is False, board


class TestParitySystem:
    def test_cylinder_4x5_parities(self):
        system = build_parity_system(build_board("cylinder", 4, 5))
        idx = system.var_index()
        for parities in parity_classes(system):
            assert parities[idx[("x", 1)]] == 1
            assert parities[idx[("x", 2)]] == 0
            assert parities[idx[("x", 3)]] == 1
            s = parities[idx[("s", None)]]
            assert all(parities[idx[("y", j)]] == s for j in range(1, 5))

    def test_rectangle_6x6_all_even(self):
        system = build_parity_system(build_board("rectangle", 6, 6))
        classes = list(parity_classes(system))
        assert len(classes) == 1
        assert all(p == 0 for p in classes[0])

    def test_mobius_4x4_color_balance_forces_even_seam(self):
        board = build_board("mobius", 4, 4)
        system = build_parity_system(board)
        idx = system.var_index()
        u_indices = [i for (kind, _key), i in idx.items() if kind == "u"]
        for parities in parity_classes(system):
            assert sum(parities[i] for i in u_indices) % 2 == 0

    def test_coverage_groups_are_the_fault_curves(self):
        for board in boards_upto(10):
            system = build_parity_system(board)
            idx = system.var_index()
            u_vars = tuple(i for (kind, _key), i in idx.items() if kind == "u")
            expected = []
            for curve in fault_curves(board):
                if curve.axis == "horizontal":
                    expected.append(tuple(idx[("x", line)] for line in sorted(curve.lines)))
                elif curve.lines == {0}:
                    expected.append(u_vars if board.topology is Topology.MOBIUS else (idx[("s", None)],))
                else:
                    expected.append(tuple(idx[("y", line)] for line in sorted(curve.lines)))
            assert system.coverage_groups == tuple(expected), board

    def test_one_pass_equals_class_enumeration(self):
        # every even-area board with sides <= 20 on all four topologies: 1,200 boards
        checked = 0
        for board in boards_upto(20):
            if board.area % 2:
                continue
            report = counting_feasible(board)
            got = (report.min_required, report.feasible, report.parity_classes_examined,
                   set(report.reachable))
            assert got == enumerated_report(board), board
            assert list(report.reachable) == sorted(got[3]), board
            checked += 1
        assert checked == 1200


class TestBruteForceEquivalence:
    def test_small_boards_two_sided(self):
        checked = 0
        for board in boards_upto(4):
            if board.area % 2:
                continue
            totals = brute_profile_totals(board)
            report = counting_feasible(board)
            expected_min = min(totals) if totals else None
            got_min = min_required_tiles(board)
            assert got_min == expected_min, (board, got_min, expected_min)
            assert report.feasible == (board.capacity in totals), board
            checked += 1
        assert checked >= 20

    def test_fault_free_profiles_satisfy_both_models(self):
        for board in boards_upto(5, max_area=16):
            system = build_parity_system(board)
            for tiling in enumerate_fault_free(board):
                profile = profile_of(board, tiling)
                assert check_profile(board, profile) == [], board
                x, y, u, s = measure_profile(board, tiling)
                assert _constraints_ok(board, x, y, u, s), board
                assert sum(x.values()) + sum(y.values()) + (
                    sum(u.values()) if board.topology is Topology.MOBIUS else s
                ) == board.capacity
