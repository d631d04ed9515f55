"""Witness construction pipeline and the file cache."""

from __future__ import annotations

import subprocess
import sys
import textwrap

import pytest

from fault_atlas import (
    ExpansionFailedError,
    InvariantError,
    Topology,
    WitnessStore,
    WitnessUnavailableError,
    build_board,
    classify,
    encode,
    expand,
    find_fault_free,
    verify,
    witness,
)
from fault_atlas.classify import matching_tileable_families
from fault_atlas.tiling import tiling_from_edges
from fault_atlas.witnesses import _base_witness, default_store
from conftest import base_witnesses, package_env


class TestWitness:
    @pytest.mark.parametrize("topo,a,b", [
        ("cylinder", 9, 8),    # base 7'x6 expanded both ways
        ("torus", 12, 9),      # canonical swap then expansion
        ("mobius", 4, 7),      # base 4"x5 grown in columns
        ("rectangle", 1, 2),   # isolated family, its own base
        ("rectangle", 2, 1),   # and its mirror
        ("mobius", 6, 3),      # row growth across the twist
    ])
    def test_examples_verify(self, topo, a, b):
        board = build_board(topo, a, b)
        tiling = witness(board)
        assert tiling.board == board
        assert verify(board, tiling).fault_free

    def test_not_tileable_rejected(self):
        with pytest.raises(ValueError):
            witness(build_board("cylinder", 5, 6))

    def test_deterministic(self):
        board = build_board("cylinder", 8, 9)
        assert encode(witness(board)) == encode(witness(board))

    def test_witness_runs_no_search(self, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("witness() ran a search")

        _base_witness.cache_clear()
        monkeypatch.setattr("fault_atlas.search._traverse", no_search)
        try:
            for topo in Topology:
                for a in range(1, 25):
                    for b in range(1, 25):
                        board = build_board(topo, a, b)
                        if classify(board).tileable:
                            assert verify(board, witness(board)).fault_free, board
        finally:
            _base_witness.cache_clear()

    def test_failing_chain_is_unavailable(self, failing_chains):
        with pytest.raises(WitnessUnavailableError):
            witness(build_board("cylinder", 6, 6))  # base 4'x6 plus two rows
        board = build_board("cylinder", 4, 6)  # a base needs no expansion
        assert verify(board, witness(board)).fault_free


class TestStore:
    def test_round_trip(self, tmp_path):
        store = WitnessStore(tmp_path)
        board = build_board("mobius", 5, 4)
        tiling = witness(board, store=store)
        path = store.path_for(board)
        assert path.exists()
        assert path.name == "mobius_5x4.json"
        again = store.load(board)
        assert again == tiling

    def test_cache_reuse_is_identical(self, tmp_path):
        store = WitnessStore(tmp_path)
        board = build_board("torus", 6, 8)
        first = encode(witness(board, store=store))
        second = encode(witness(board, store=store))
        assert first == second
        assert store.path_for(board).read_text(encoding="utf-8") == first

    def test_tampered_cache_entry_is_rebuilt(self, tmp_path):
        store = WitnessStore(tmp_path)
        board = build_board("rectangle", 5, 6)
        tiling = witness(board, store=store)
        path = store.path_for(board)
        doc = encode(tiling)
        # drop one domino: still parses, no longer verifies
        import json

        obj = json.loads(doc)
        obj["dominoes"] = obj["dominoes"][:-1]
        path.write_text(json.dumps(obj), encoding="utf-8")
        rebuilt = witness(board, store=store)
        assert verify(board, rebuilt).fault_free
        assert store.load(board) == rebuilt

    def test_truncated_entry_is_rebuilt(self, tmp_path):
        store = WitnessStore(tmp_path)
        board = build_board("cylinder", 4, 6)
        text = encode(witness(board, store=store))
        path = store.path_for(board)
        path.write_text(text[: len(text) // 2], encoding="utf-8")
        assert store.load(board) is None
        rebuilt = witness(board, store=store)
        assert path.read_text(encoding="utf-8") == text
        assert store.load(board) == rebuilt

    def test_entry_for_another_board_is_rebuilt(self, tmp_path):
        store = WitnessStore(tmp_path)
        board = build_board("rectangle", 5, 6)
        other = witness(build_board("rectangle", 5, 8))
        store.path_for(board).write_text(encode(other), encoding="utf-8")
        assert store.load(board) is None
        rebuilt = witness(board, store=store)
        assert store.load(board) == rebuilt

    def test_deeply_nested_entry_is_rebuilt(self, tmp_path):
        store = WitnessStore(tmp_path)
        board = build_board("cylinder", 4, 6)
        path = store.path_for(board)
        path.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
        assert store.load(board) is None
        rebuilt = witness(board, store=store)
        assert path.read_text(encoding="utf-8") == encode(rebuilt)

    def test_unreadable_entry_is_a_miss(self, tmp_path):
        store = WitnessStore(tmp_path)
        board = build_board("cylinder", 4, 6)
        store.path_for(board).mkdir()
        assert store.load(board) is None
        with pytest.raises(OSError):
            witness(board, store=store)

    def test_save_leaves_only_the_entry(self, tmp_path):
        store = WitnessStore(tmp_path / "cache")
        board = build_board("torus", 4, 4)
        witness(board, store=store)
        witness(board, store=store)
        assert list(store.directory.iterdir()) == [store.path_for(board)]

    def test_env_overrides_directory(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FAULT_ATLAS_CACHE", str(tmp_path / "env_cache"))
        store = default_store(tmp_path / "flag_cache")
        assert store is not None
        assert store.directory == tmp_path / "env_cache"
        monkeypatch.delenv("FAULT_ATLAS_CACHE")
        store = default_store(tmp_path / "flag_cache")
        assert store.directory == tmp_path / "flag_cache"
        assert default_store(None) is None


def _plain_chain(board):
    """The reference chain: public expand one band at a time from each family base's witness."""
    bases = dict(base_witnesses(board.topology))
    options = sorted(matching_tileable_families(board), key=lambda t: (t[1] + t[2], t[0].id))
    for fam, n, m in options:
        base = build_board(board.topology, *fam.base)
        # 1 x 2 is its own base, not an expanding family's
        current = bases[base] if base in bases else find_fault_free(base).witness
        try:
            for _ in range(n):
                current = expand(current, "rows")
            for _ in range(m):
                current = expand(current, "cols")
        except ExpansionFailedError:
            continue
        if current.board != board:  # a torus grown as b x a
            edges = [("v" if p.edge.axis == "h" else "h", p.edge.line, p.edge.offset)
                     for p in current.dominoes]
            current = tiling_from_edges(board, edges)
        return current
    raise AssertionError(f"no family chain grows {board}")


class TestChainMemo:
    """witness() grows each axis in one cut; its bytes equal the chain of single expansions."""

    @pytest.fixture(scope="class")
    def plain(self):
        boards = [build_board(topo, a, b) for topo in Topology
                  for a in range(1, 15) for b in range(1, 15)]
        return {board: encode(_plain_chain(board)) for board in boards if classify(board).tileable}

    def test_bytes_equal_plain_chain(self, plain):
        for board, text in plain.items():
            assert encode(witness(board)) == text, board

    def test_bytes_equal_plain_chain_largest_first(self, plain):
        for board in sorted(plain, key=lambda bd: (-bd.area, -bd.a)):
            assert encode(witness(board)) == plain[board], board


class TestChainCuts:
    """A process searches each family step's cut once, and a kept cut gives the bytes a fresh one does."""

    @pytest.mark.parametrize("topo", list(Topology), ids=lambda t: t.value)
    def test_census_runs_one_cut_search_per_family_step(self, monkeypatch, tmp_path, topo):
        import fault_atlas.witnesses as w
        from fault_atlas.cli import main

        searched = []
        real_cut = w._cut_path

        def recording(board, keys, axis):
            searched.append((board, frozenset(keys), axis))
            return real_cut(board, keys, axis)

        w._chain_cut.cache_clear()
        monkeypatch.setattr(w, "_cut_path", recording)
        assert main(["census", "--topology", topo.value, "--max", "20", "--out", str(tmp_path / "chart.txt"),
                     "--witnesses", str(tmp_path / "cache"), "--witness-limit", "20"]) == 0
        assert 0 < len(searched) <= 30
        assert len(set(searched)) == len(searched)  # no step searched twice
        assert w._chain_cut.cache_info().currsize == len(searched)

    def test_kept_cuts_equal_fresh_ones(self):
        import fault_atlas.witnesses as w

        boards = [build_board(topo, a, b) for topo in Topology for a in range(1, 21) for b in range(1, 21)]
        boards = [board for board in boards if classify(board).tileable]
        w._chain_cut.cache_clear()
        kept = {board: encode(witness(board)) for board in reversed(boards)}
        for board in boards:
            w._chain_cut.cache_clear()
            assert encode(witness(board)) == kept[board], board


class TestChainOnEdgeKeys:
    @pytest.mark.parametrize("topo,a,b", [("cylinder", 4, 40), ("torus", 6, 12)])
    def test_placements_are_built_once(self, monkeypatch, topo, a, b):
        import fault_atlas.expansion
        import fault_atlas.witnesses as w

        board = build_board(topo, a, b)
        witness(board)  # loads the base's edge keys, which builds no placements
        w._chain_cut.cache_clear()  # so the counted witness() searches its cuts again
        built = []
        grown = []
        real_build, real_cut = w.tiling_from_edges, w._cut_path

        def recording(on, edges):
            built.append(on)
            return real_build(on, edges)

        def counting(on, keys, axis):
            grown.append(axis)
            return real_cut(on, keys, axis)

        for module in (w, fault_atlas.expansion):
            monkeypatch.setattr(module, "tiling_from_edges", recording)
        monkeypatch.setattr(w, "_cut_path", counting)
        tiling = witness(board)
        assert built == [board]
        assert verify(board, tiling).fault_free
        assert grown and len(grown) == len(set(grown))  # at most one cut search per axis

    def test_witness_reverifies_the_chain_result(self, monkeypatch):
        import fault_atlas.witnesses as w

        def no_band(board, keys, axis, path, k):  # grows the board, lays no band: the result cannot verify
            a, b = (board.a + 2 * k, board.b) if axis == "rows" else (board.a, board.b + 2 * k)
            return build_board(board.topology, a, b), keys

        monkeypatch.setattr(w, "_lay_bands", no_band)
        with pytest.raises(InvariantError, match="fails verification"):
            witness(build_board("cylinder", 6, 6))


def test_invariant_holds_under_optimize():
    script = textwrap.dedent("""
        import fault_atlas.witnesses as w
        from fault_atlas import InvariantError, build_board
        from fault_atlas.bases import BASE_KEYS

        BASE_KEYS["rectangle", 5, 6] = BASE_KEYS["rectangle", 5, 6][1:]
        try:
            w._base_witness(build_board("rectangle", 5, 6))
        except InvariantError:
            print(__debug__, "raised")
    """)
    done = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True,
                          env=package_env(), timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "raised"]
