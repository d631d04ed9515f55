"""Witness bytes are a fence: every encoded witness hashes to its pinned digest.

`tests/golden/witness_sha256.txt` holds one line `topology a b sha256` per
tileable board with sides <= 20 on each topology, then the 63x64 and 64x63
boards.  Regenerate it only for a deliberate change of the witness bytes:

    PYTHONPATH=src python tests/test_witness_digests.py > tests/golden/witness_sha256.txt
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Iterator

import pytest

from fault_atlas import Topology, build_board, classify, encode, witness

GOLDEN = Path(__file__).parent / "golden" / "witness_sha256.txt"


def _boards() -> Iterator:
    for topo in Topology:
        for a in range(1, 21):
            for b in range(1, 21):
                board = build_board(topo, a, b)
                if classify(board).tileable:
                    yield board
    for topo in Topology:
        for a, b in ((63, 64), (64, 63)):
            yield build_board(topo, a, b)


def digest_lines() -> Iterator[str]:
    for board in _boards():
        digest = hashlib.sha256(encode(witness(board)).encode("utf-8")).hexdigest()
        yield f"{board.topology.value} {board.a} {board.b} {digest}"


def test_witness_bytes_match_golden_digests():
    expected = GOLDEN.read_text(encoding="utf-8").splitlines()
    actual = list(digest_lines())
    assert len(actual) == len(expected)
    changed = [(e, a) for e, a in zip(expected, actual) if e != a]
    assert not changed, f"{len(changed)} witnesses changed, first: {changed[0]}"


@pytest.mark.parametrize("topo", list(Topology), ids=lambda t: t.value)
def test_cold_census_files_match_golden_digests(tmp_path, topo):
    # census writes through the store's key path, not encode(witness(...))
    import fault_atlas.witnesses as w
    from fault_atlas.cli import main

    expected = {}
    for line in GOLDEN.read_text(encoding="utf-8").splitlines():
        name, a, b, digest = line.split()
        if name == topo.value and int(a) <= 20 and int(b) <= 20:
            expected[f"{name}_{a}x{b}.json"] = digest
    cache = tmp_path / "cache"
    w._chain_cut.cache_clear()
    assert main(["census", "--topology", topo.value, "--max", "20", "--out", str(tmp_path / "chart.txt"),
                 "--witnesses", str(cache), "--witness-limit", "20"]) == 0
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in cache.iterdir()}
    assert written == expected


if __name__ == "__main__":
    for line in digest_lines():
        print(line)
