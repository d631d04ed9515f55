"""CLI subcommands, exit codes, golden charts."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from fault_atlas.cli import main

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestClassify:
    def test_cylinder_5x6(self, capsys):
        code, out, _ = run(capsys, "classify", "--topology", "cylinder", "--a", "5", "--b", "6")
        assert code == 0
        assert "not fault-free tileable" in out

    def test_torus_4x4(self, capsys):
        code, out, _ = run(capsys, "classify", "--topology", "torus", "--a", "4", "--b", "4")
        assert code == 0
        assert "fault-free tileable" in out and "not fault-free" not in out

    def test_invalid_dimension_exit_2(self, capsys):
        code, _, err = run(capsys, "classify", "--topology", "rectangle", "--a", "0", "--b", "5")
        assert code == 2

    def test_bad_flag_exit_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--no-such-flag"])
        assert exc.value.code == 1

    def test_explain_appends_bound(self, capsys):
        code, out, _ = run(capsys, "classify", "--topology", "rectangle",
                           "--a", "6", "--b", "6", "--explain")
        assert code == 0
        assert "min required 20, capacity 18, infeasible" in out


class TestBound:
    def test_rectangle_6x6(self, capsys):
        code, out, _ = run(capsys, "bound", "--topology", "rectangle", "--a", "6", "--b", "6")
        assert code == 0
        assert "min required 20, capacity 18, infeasible" in out

    def test_cylinder_6x5(self, capsys):
        code, out, _ = run(capsys, "bound", "--topology", "cylinder", "--a", "6", "--b", "5")
        assert code == 0
        assert "min required 12, capacity 15, infeasible" in out

    def test_torus_4x4_feasible(self, capsys):
        code, out, _ = run(capsys, "bound", "--topology", "torus", "--a", "4", "--b", "4")
        assert code == 0
        assert "feasible" in out and "infeasible" not in out

    def test_tall_mobius_feasible(self, capsys):
        code, out, _ = run(capsys, "bound", "--topology", "mobius", "--a", "64", "--b", "65")
        assert code == 0
        assert out.startswith("min required 128, capacity 2080, feasible\n")


class TestSolveVerifyRenderExpand:
    def test_full_witness_flow(self, capsys, tmp_path):
        wfile = tmp_path / "c46.json"
        code, _, _ = run(capsys, "solve", "--topology", "cylinder", "--a", "4", "--b", "6",
                         "--out", str(wfile))
        assert code == 0 and wfile.exists()

        code, out, _ = run(capsys, "verify", str(wfile))
        assert code == 0
        assert "fault-free: True" in out

        code, out, _ = run(capsys, "render", str(wfile))
        assert code == 0
        assert out.count("\n") == 9  # 2*4+1 canvas rows

        svgfile = tmp_path / "c46.svg"
        code, _, _ = run(capsys, "render", str(wfile), "--format", "svg", "--out", str(svgfile))
        assert code == 0
        assert svgfile.read_text(encoding="utf-8").startswith("<svg")

        grown = tmp_path / "c48.json"
        code, _, _ = run(capsys, "expand", str(wfile), "--axis", "cols", "--out", str(grown))
        assert code == 0
        doc = json.loads(grown.read_text(encoding="utf-8"))
        assert (doc["a"], doc["b"]) == (4, 8)
        code, out, _ = run(capsys, "verify", str(grown))
        assert code == 0

    def test_solve_inconclusive_when_chains_fail(self, capsys, failing_chains):
        code, out, _ = run(capsys, "solve", "--topology", "cylinder", "--a", "6", "--b", "6")
        assert code == 0
        assert "inconclusive" in out

    def test_solve_not_tileable(self, capsys):
        code, out, _ = run(capsys, "solve", "--topology", "cylinder", "--a", "5", "--b", "6")
        assert code == 0
        assert "not fault-free tileable" in out

    def test_solve_other_formats(self, capsys):
        code, out, _ = run(capsys, "solve", "--topology", "rectangle", "--a", "5", "--b", "6",
                           "--format", "ascii")
        assert code == 0 and out.startswith("+-")
        code, out, _ = run(capsys, "solve", "--topology", "rectangle", "--a", "5", "--b", "6",
                           "--format", "svg")
        assert code == 0 and out.startswith("<svg")

    def test_solve_rebuilds_truncated_cache_entry(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("FAULT_ATLAS_CACHE", raising=False)
        argv = ("solve", "--topology", "cylinder", "--a", "4", "--b", "22", "--witnesses", str(tmp_path))
        code, first, _ = run(capsys, *argv)
        assert code == 0
        entry = tmp_path / "cylinder_4x22.json"
        entry.write_text(first[: len(first) // 2], encoding="utf-8")
        code, again, _ = run(capsys, *argv)
        assert code == 0
        assert again == first
        assert entry.read_text(encoding="utf-8") == first

    def test_tampered_witness_exit_3(self, capsys, tmp_path):
        wfile = tmp_path / "w.json"
        run(capsys, "solve", "--topology", "rectangle", "--a", "5", "--b", "6",
            "--out", str(wfile))
        doc = json.loads(wfile.read_text(encoding="utf-8"))
        doc["dominoes"] = doc["dominoes"][:-1]
        wfile.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = run(capsys, "render", str(wfile))
        assert code == 3
        code, out, _ = run(capsys, "verify", str(wfile))
        assert code == 3
        assert out.startswith("board: rectangle 5x6\nmatching valid: False\nuncovered cells: [")
        assert out.endswith("fault-free: False\n")
        assert err == "witness fails verification:\n" + out

    def test_malformed_witness_exit_2(self, capsys, tmp_path):
        wfile = tmp_path / "bad.json"
        wfile.write_text("{broken", encoding="utf-8")
        code, _, _ = run(capsys, "render", str(wfile))
        assert code == 2

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _, _ = run(capsys, "verify", str(tmp_path / "nope.json"))
        assert code == 2


class TestCensus:
    @pytest.mark.parametrize("topo", ["rectangle", "cylinder", "torus", "mobius"])
    def test_matches_golden(self, capsys, tmp_path, topo):
        out_file = tmp_path / f"{topo}.txt"
        code, _, _ = run(capsys, "census", "--topology", topo, "--max", "20",
                         "--out", str(out_file))
        assert code == 0
        assert out_file.read_bytes() == (GOLDEN / f"{topo}_20.txt").read_bytes()

    def test_deterministic(self, capsys, tmp_path):
        one = tmp_path / "one.txt"
        two = tmp_path / "two.txt"
        run(capsys, "census", "--topology", "mobius", "--max", "20", "--out", str(one))
        run(capsys, "census", "--topology", "mobius", "--max", "20", "--out", str(two))
        assert one.read_bytes() == two.read_bytes()

    def test_rectangle_golden_is_grahams_rule(self):
        # Graham, "Fault-free tilings of rectangles" (The Mathematical Gardner, 1981),
        # plus the 1 x 2 board whose one domino crosses its one fold line.
        rows = (GOLDEN / "rectangle_20.txt").read_text(encoding="utf-8").splitlines()
        assert rows[0] == "rectangle 20 20"
        for a, row in enumerate(rows[1:], 1):
            for b, mark in enumerate(row, 1):
                graham = (a * b) % 2 == 0 and min(a, b) >= 5 and (a, b) != (6, 6)
                assert (mark == "X") is (graham or sorted((a, b)) == [1, 2]), (a, b)

    def test_max_guard(self, capsys):
        code, _, _ = run(capsys, "census", "--topology", "torus", "--max", "65")
        assert code == 2

    def test_negative_witness_limit_exit_1(self, capsys, tmp_path):
        code, out, err = run(capsys, "census", "--topology", "torus", "--max", "5",
                             "--witnesses", str(tmp_path), "--witness-limit", "-1")
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and "--witness-limit" in err

    def test_unwritable_out_exit_2(self, capsys):
        code, _, _ = run(capsys, "census", "--topology", "torus", "--max", "5",
                         "--out", "/nonexistent-dir/chart.txt")
        assert code == 2

    def test_witness_population(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        code, _, _ = run(capsys, "census", "--topology", "cylinder", "--max", "8",
                         "--out", str(tmp_path / "c.txt"), "--witnesses", str(cache),
                         "--witness-limit", "8")
        assert code == 0
        files = sorted(p.name for p in cache.glob("*.json"))
        assert "cylinder_4x6.json" in files
        assert "cylinder_5x6.json" not in files  # not tileable, no witness
        from fault_atlas import build_board, verify
        from fault_atlas.witnesses import WitnessStore

        store = WitnessStore(cache)
        for p in files:
            topo, dims = p[:-5].split("_")
            a, b = map(int, dims.split("x"))
            board = build_board(topo, a, b)
            loaded = store.load(board)
            assert loaded is not None and verify(board, loaded).fault_free

    def test_env_cache_override(self, capsys, tmp_path, monkeypatch):
        env_cache = tmp_path / "env"
        monkeypatch.setenv("FAULT_ATLAS_CACHE", str(env_cache))
        code, _, _ = run(capsys, "census", "--topology", "mobius", "--max", "5",
                         "--out", str(tmp_path / "m.txt"), "--witnesses", str(tmp_path / "flag"),
                         "--witness-limit", "5")
        assert code == 0
        assert list(env_cache.glob("*.json"))
        assert not (tmp_path / "flag").exists()

    def test_env_alone_does_not_enable_generation(self, capsys, tmp_path, monkeypatch):
        env_cache = tmp_path / "env_only"
        monkeypatch.setenv("FAULT_ATLAS_CACHE", str(env_cache))
        code, _, _ = run(capsys, "census", "--topology", "mobius", "--max", "5",
                         "--out", str(tmp_path / "m.txt"))
        assert code == 0
        assert not env_cache.exists()
