"""Search outcomes are a fence: status, node count, pruned children and witness bytes per board.

`tests/golden/search_outcomes.txt` holds one line per search, in this order:

- `fault-free topology a b status nodes sha256 pruned` for every board of area <= 48;
- `unpruned ...`, the same with `prune=False`, for area <= 24;
- `count topology a b n`, the number of perfect matchings from the reference
  count in `tests/conftest.py`, for area <= 16.

The digest is the SHA-256 of `encode(witness)`, or `-` when there is no
witness.  Regenerate the file only for a deliberate change to the search: a
change of its order, which may move any column, or a change to its node and
pruned counts alone (moving the failed-state memo's checks, say), after which
the status and digest columns must be unchanged:

    PYTHONPATH=src python tests/test_search_golden.py > tests/golden/search_outcomes.txt
"""

from __future__ import annotations

import functools
import hashlib
from pathlib import Path
from typing import Iterator

from fault_atlas import Topology, build_board, encode, find_fault_free, search
from conftest import count_tilings

GOLDEN = Path(__file__).parent / "golden" / "search_outcomes.txt"


def _boards(max_area: int) -> Iterator:
    for topo in Topology:
        for a in range(1, max_area + 1):
            for b in range(1, max_area // a + 1):
                yield build_board(topo, a, b)


def _line(kind: str, board, outcome) -> str:
    digest = "-" if outcome.witness is None else hashlib.sha256(
        encode(outcome.witness).encode("utf-8")).hexdigest()
    return (f"{kind} {board.topology.value} {board.a} {board.b} {outcome.status} {outcome.nodes} {digest}"
            f" {outcome.pruned}")


def outcome_lines() -> Iterator[str]:
    for board in _boards(48):
        yield _line("fault-free", board, find_fault_free(board))
    for board in _boards(24):
        yield _line("unpruned", board, find_fault_free(board, prune=False))
    for board in _boards(16):
        yield f"count {board.topology.value} {board.a} {board.b} {count_tilings(board)}"


def test_search_outcomes_match_golden():
    expected = GOLDEN.read_text(encoding="utf-8").splitlines()
    actual = list(outcome_lines())
    assert len(actual) == len(expected)
    changed = [(e, a) for e, a in zip(expected, actual) if e != a]
    assert not changed, f"{len(changed)} search outcomes changed, first: {changed[0]}"


def test_memo_eviction_moves_only_node_counts(monkeypatch):
    """With two states per memo generation, every search to area 24 keeps its golden status and witness."""
    monkeypatch.setattr(search, "MEMO_GENERATION", 2)
    golden = {tuple(fields[:4]): fields for fields in map(str.split, GOLDEN.read_text(encoding="utf-8").splitlines())}
    moved = 0
    for kind, find, max_area in (("fault-free", find_fault_free, 24),
                                 ("unpruned", functools.partial(find_fault_free, prune=False), 24)):
        for board in _boards(max_area):
            actual = _line(kind, board, find(board)).split()
            expected = golden[tuple(actual[:4])]
            assert (actual[4], actual[6]) == (expected[4], expected[6]), actual
            moved += actual[5] != expected[5]
    assert moved  # the small memo forgot states and searched them again


if __name__ == "__main__":
    for line in outcome_lines():
        print(line)
