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


if __name__ == "__main__":
    for line in digest_lines():
        print(line)
