"""The base-witness table is pinned to the search.

`src/fault_atlas/bases.py` holds, for each tileable family base, the sorted
edge keys of the witness `find_fault_free` returns for it.  `witness()` reads
the table instead of searching.  Regenerate it only when the search's first
witness changes on purpose:

    PYTHONPATH=src python tests/test_bases.py > src/fault_atlas/bases.py
"""

from __future__ import annotations

import pytest

from fault_atlas import find_fault_free
from fault_atlas.bases import BASE_KEYS
from fault_atlas.classify import FAMILIES
from fault_atlas.tiling import _edge_keys
from fault_atlas.topology import BoardSpec, build_board

HEADER = '''"""Edge keys of each tileable family base's witness, the one the search finds first.

(topology value, a, b) -> the sorted (axis, line, offset) keys of
find_fault_free(base).witness.  witnesses.py builds and re-verifies an entry
when it loads it.  Generated by tests/test_bases.py, which pins it to the search.
"""

BASE_KEYS = {
'''


def family_bases() -> list[BoardSpec]:
    """Every tileable family's base board, 1 x 2 and 2 x 1 included, in family order."""
    return [build_board(topo, *fam.base) for topo, families in FAMILIES.items()
            for fam in families if fam.tileable]


def searched_keys(board: BoardSpec) -> tuple:
    return tuple(sorted(_edge_keys(find_fault_free(board).witness)))


def table_source() -> str:
    lines = [f"    {(b.topology.value, b.a, b.b)!r}: {searched_keys(b)!r},\n" for b in family_bases()]
    return HEADER + "".join(lines) + "}\n"


def test_table_covers_exactly_the_family_bases():
    bases = family_bases()
    assert len(bases) == len(set(bases)) == 20
    assert set(BASE_KEYS) == {(b.topology.value, b.a, b.b) for b in bases}


@pytest.mark.parametrize("board", family_bases(), ids=str)
def test_entry_equals_the_searched_witness(board):
    assert BASE_KEYS[board.topology.value, board.a, board.b] == searched_keys(board)


if __name__ == "__main__":
    print(table_source(), end="")
