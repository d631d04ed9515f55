"""CLI subcommands, exit codes, golden charts."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from fault_atlas import decode, verify
from fault_atlas.cli import MAX_AREA, MAX_WITNESS_BYTES, main
from fault_atlas.tiling import _DOCUMENT, _DOMINO, DOCUMENT_BYTES_PER_DOMINO
from conftest import MALFORMED_DOCUMENTS, package_env

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

    def test_odd_area(self, capsys):
        code, out, err = run(capsys, "bound", "--topology", "rectangle", "--a", "5", "--b", "5")
        assert code == 0 and err == ""
        assert out == "min required n/a, capacity n/a, infeasible (odd area 25)\n"

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

    @pytest.mark.parametrize("cached", [True, False], ids=["store", "no-store"])
    def test_solve_encodes_a_new_witness_once(self, capsys, tmp_path, monkeypatch, cached):
        """A cache miss writes the document once: stdout and the cache entry are the text of one encode."""
        from fault_atlas import build_board, encode, tiling, witness, witnesses

        monkeypatch.delenv("FAULT_ATLAS_CACHE", raising=False)
        calls = []
        real = tiling._encode_keys

        def counted(board, keys):
            calls.append(board)
            return real(board, keys)

        monkeypatch.setattr(tiling, "_encode_keys", counted)
        monkeypatch.setattr(witnesses, "_encode_keys", counted)
        cache = tmp_path / "cache"
        store = ["--witnesses", str(cache)] if cached else []
        code, out, _ = run(capsys, "solve", "--topology", "torus", "--a", "6", "--b", "8", *store)
        assert code == 0 and len(calls) == 1  # the store's encode and stdout's were two
        board = build_board("torus", 6, 8)
        assert out == encode(witness(board))
        if cached:
            assert (cache / "torus_6x8.json").read_text(encoding="utf-8") == out

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
        grown = tmp_path / "grown.json"
        code, _, err = run(capsys, "expand", str(wfile), "--axis", "rows", "--out", str(grown))
        assert code == 3
        assert err == "witness fails verification; cannot expand\n"
        assert not grown.exists()

    def test_malformed_witness_exit_2(self, capsys, tmp_path):
        wfile = tmp_path / "bad.json"
        wfile.write_text("{broken", encoding="utf-8")
        code, _, _ = run(capsys, "render", str(wfile))
        assert code == 2

    @pytest.mark.parametrize("text,message", MALFORMED_DOCUMENTS)
    def test_malformed_document_exit_2(self, capsys, tmp_path, text, message):
        wfile = tmp_path / "w.json"
        wfile.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "verify", str(wfile))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and message in err

    def test_expand_1x2_exit_2(self, capsys, tmp_path):
        # the 1 x 2 rectangle has no cut path on either axis
        wfile = tmp_path / "r12.json"
        run(capsys, "solve", "--topology", "rectangle", "--a", "1", "--b", "2", "--out", str(wfile))
        grown = tmp_path / "grown.json"
        code, out, err = run(capsys, "expand", str(wfile), "--axis", "rows", "--out", str(grown))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "no verifying cut path" in err
        assert not grown.exists()

    def test_solve_with_a_thousand_step_cut(self, capsys):
        # the chain's column cut has one step per row, 1000 here
        code, out, _ = run(capsys, "solve", "--topology", "rectangle", "--a", "1000", "--b", "10")
        assert code == 0
        tiling = decode(out)
        assert verify(tiling.board, tiling).fault_free

    def test_expand_rows_with_a_thousand_step_cut(self, capsys, tmp_path):
        wfile = tmp_path / "r6x1000.json"
        code, _, _ = run(capsys, "solve", "--topology", "rectangle", "--a", "6", "--b", "1000", "--out", str(wfile))
        assert code == 0
        code, out, _ = run(capsys, "expand", str(wfile), "--axis", "rows")
        assert code == 0
        tiling = decode(out)
        assert (tiling.board.a, tiling.board.b) == (8, 1000)
        assert verify(tiling.board, tiling).fault_free

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _, _ = run(capsys, "verify", str(tmp_path / "nope.json"))
        assert code == 2

    @pytest.mark.parametrize("command", [("verify",), ("render",), ("expand", "--axis", "rows")])
    def test_deeply_nested_witness_exit_2(self, capsys, tmp_path, command):
        wfile = tmp_path / "deep.json"
        wfile.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
        code, out, err = run(capsys, command[0], str(wfile), *command[1:])
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "not valid JSON" in err

    @pytest.mark.parametrize("command", [("verify",), ("render",), ("expand", "--axis", "rows")])
    def test_non_utf8_witness_exit_2(self, capsys, tmp_path, command):
        wfile = tmp_path / "w.json"
        wfile.write_bytes(b"\xff\xfe{}")
        code, out, err = run(capsys, command[0], str(wfile), *command[1:])
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "not UTF-8 text" in err

    def test_unreadable_cache_entry_is_a_miss_and_unwritable_exit_2(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("FAULT_ATLAS_CACHE", raising=False)
        (tmp_path / "cylinder_4x6.json").mkdir()
        code, out, err = run(capsys, "solve", "--topology", "cylinder", "--a", "4", "--b", "6",
                             "--witnesses", str(tmp_path))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("fault-atlas: I/O failure: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cylinder_4x6.json"]


HUGE_WITNESS = '{"topology":"rectangle","a":1000000000,"b":1000000000,"dominoes":[]}'


def run_capped(*argv, timeout=30):
    """main(argv) in a child interpreter capped at 1 GiB of address space, so a
    command that allocates per cell fails there instead of exhausting the machine."""
    script = textwrap.dedent("""
        import resource, sys
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        from fault_atlas.cli import main
        sys.exit(main(sys.argv[1:]))
    """)
    return subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True,
                          env=package_env(), timeout=timeout)


needs_fifo = pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes on this platform")


class TestFifo:
    """Each command runs in a child interpreter, so one that blocks fails on the timeout instead of hanging."""

    @needs_fifo
    def test_fifo_cache_entry_is_a_miss(self, tmp_path, monkeypatch):
        monkeypatch.delenv("FAULT_ATLAS_CACHE", raising=False)
        entry = tmp_path / "cylinder_4x6.json"
        os.mkfifo(entry)
        done = run_capped("solve", "--topology", "cylinder", "--a", "4", "--b", "6", "--witnesses", str(tmp_path))
        assert done.returncode == 0, done.stderr
        tiling = decode(done.stdout)
        assert verify(tiling.board, tiling).fault_free
        assert entry.is_file() and entry.read_text(encoding="utf-8") == done.stdout

    @needs_fifo
    def test_verify_reads_a_fifo(self, tmp_path):
        # `fault-atlas verify <(...)` hands the command a FIFO
        source, pipe = tmp_path / "w.json", tmp_path / "pipe"
        assert main(["solve", "--topology", "mobius", "--a", "5", "--b", "4", "--out", str(source)]) == 0
        os.mkfifo(pipe)
        copy = "import pathlib, sys; pathlib.Path(sys.argv[2]).write_bytes(pathlib.Path(sys.argv[1]).read_bytes())"
        writer = subprocess.Popen([sys.executable, "-c", copy, str(source), str(pipe)])
        try:
            done = run_capped("verify", str(pipe))
        finally:
            writer.kill()
            writer.wait()
        assert done.returncode == 0, done.stderr
        assert done.stdout.endswith("fault-free: True\n")


class TestReadCeiling:
    """A witness file or cache entry is read only up to its byte ceiling, in a child capped at 1 GiB."""

    @pytest.mark.parametrize("command", [("verify",), ("render",), ("expand", "--axis", "rows")])
    def test_oversized_witness_file_exit_2(self, tmp_path, command):
        wfile = tmp_path / "w.json"
        wfile.touch()
        os.truncate(wfile, 3 << 30)  # sparse: 3 GiB of zero bytes that take no disk
        done = run_capped(command[0], str(wfile), *command[1:])
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.count("\n") == 1
        assert f"longer than the ceiling of {MAX_WITNESS_BYTES} bytes" in done.stderr

    def test_oversized_cache_entry_is_a_miss(self, tmp_path, monkeypatch):
        monkeypatch.delenv("FAULT_ATLAS_CACHE", raising=False)
        entry = tmp_path / "cylinder_4x6.json"
        entry.touch()
        os.truncate(entry, 3 << 30)
        done = run_capped("solve", "--topology", "cylinder", "--a", "4", "--b", "6",
                          "--witnesses", str(tmp_path))
        assert done.returncode == 0, done.stderr
        tiling = decode(done.stdout)
        assert verify(tiling.board, tiling).fault_free
        assert entry.read_text(encoding="utf-8") == done.stdout  # save replaced the entry

    def test_ceiling_holds_every_document_within_the_area_ceiling(self):
        # every number in a document of a board within MAX_AREA has at most as many digits as MAX_AREA
        n = MAX_AREA
        header = len(_DOCUMENT % ("rectangle", n, n, "[\n\n  ]"))
        domino = len(_DOMINO % ("h", n, n, n, n, n, n)) + len(",\n")
        assert header + domino <= DOCUMENT_BYTES_PER_DOMINO


class TestAreaCeiling:
    @pytest.mark.parametrize("argv", [
        ("verify", "WITNESS"),
        ("render", "WITNESS"),
        ("expand", "WITNESS", "--axis", "rows"),
        ("bound", "--topology", "rectangle", "--a", "100000", "--b", "100000"),
        ("classify", "--topology", "torus", "--a", "1000000000", "--b", "1000000000", "--explain"),
        ("bound", "--topology", "mobius", "--a", "1000", "--b", "1001"),
        ("solve", "--topology", "cylinder", "--a", "4", "--b", "100000"),
    ])
    def test_hostile_size_exit_2(self, tmp_path, argv):
        wfile = tmp_path / "huge.json"
        wfile.write_text(HUGE_WITNESS, encoding="utf-8")
        done = run_capped(*(str(wfile) if arg == "WITNESS" else arg for arg in argv))
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.count("\n") == 1 and f"above the ceiling of {MAX_AREA}" in done.stderr

    def test_expand_past_the_ceiling_exit_2(self, capsys, tmp_path):
        # the grown board is checked before the input is verified, so this costs nothing
        wfile = tmp_path / "edge.json"
        wfile.write_text('{"topology":"rectangle","a":512,"b":512,"dominoes":[]}', encoding="utf-8")
        code, out, err = run(capsys, "expand", str(wfile), "--axis", "rows")
        assert code == 2 and out == "" and err.count("\n") == 1
        assert f"rectangle 514x512 has area 263168, above the ceiling of {MAX_AREA}" in err

    def test_long_cylinder_at_the_ceiling_solves(self, tmp_path):
        # 32,765 double columns from the 4'x6 base: one cut per axis keeps this linear.
        out = tmp_path / "long.json"
        done = run_capped("solve", "--topology", "cylinder", "--a", "4", "--b", "65536",
                          "--out", str(out), timeout=60)
        assert done.returncode == 0, done.stderr
        done = run_capped("verify", str(out), timeout=60)
        assert done.returncode == 0, done.stderr

    def test_moebius_bound_at_the_ceiling_counts(self):
        # one set of reachable totals per state: keeping each of the about n^2/16
        # class ranges made this cubic in the side, about 46 s
        done = run_capped("bound", "--topology", "mobius", "--a", "512", "--b", "512")
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[0] == "min required 1536, capacity 131072, feasible"

    def test_long_rectangle_bound_counts(self):
        # the counting set-up walks each equation's own variables: looping over every
        # index up to each equation's last variable made this quadratic, over 90 s
        done = run_capped("bound", "--topology", "rectangle", "--a", "2", "--b", "16384")
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[0] == "min required 32768, capacity 16384, infeasible"

    def test_plain_classify_takes_any_size(self, capsys):
        code, out, _ = run(capsys, "classify", "--topology", "torus",
                           "--a", "1000000000", "--b", "1000000000")
        assert code == 0
        assert out == "torus 1000000000'x1000000000': fault-free tileable [family (4+2n)' x (4+2m)']\n"

    def test_ceiling_is_inclusive(self, capsys):
        code, out, _ = run(capsys, "bound", "--topology", "rectangle", "--a", "512", "--b", "512")
        assert code == 0 and out.startswith("min required ")
        code, out, err = run(capsys, "bound", "--topology", "rectangle", "--a", "512", "--b", "513")
        assert code == 2 and out == "" and err.count("\n") == 1


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

    @pytest.mark.parametrize("size, limit, written", [
        (10, 6, ["4x3", "4x5", "5x4", "5x6", "6x3", "6x5", "6x6"]),
        (10, 0, []),
        (5, 9, ["4x3", "4x5", "5x4"]),  # a limit above --max stops at --max
    ], ids=["limit-6", "limit-0", "limit-above-max"])
    def test_witness_files_in_write_order(self, capsys, tmp_path, monkeypatch, size, limit, written):
        # the X cells of the chart with both sides <= the limit, row by row
        from fault_atlas.witnesses import WitnessStore

        saved = []
        save = WitnessStore._save_keys
        monkeypatch.setattr(WitnessStore, "_save_keys",
                            lambda store, board, keys: saved.append(save(store, board, keys).name))
        cache = tmp_path / "cache"
        code, _, _ = run(capsys, "census", "--topology", "mobius", "--max", str(size),
                         "--out", str(tmp_path / "m.txt"), "--witnesses", str(cache),
                         "--witness-limit", str(limit))
        assert code == 0
        expected = [f"mobius_{dims}.json" for dims in written]
        assert saved == expected
        assert sorted(p.name for p in cache.glob("*")) == expected

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
