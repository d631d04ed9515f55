"""The base-witness table is fixed data.

`src/fault_atlas/bases.py` holds, for each tileable family base, the sorted
edge keys of one fault-free tiling: the first witness the search found when
it numbered cells column by column.  `witness()` reads the table instead of
searching, and the base boards' lines in `tests/golden/witness_sha256.txt`
pin its keys.  The table is not regenerated from the search, whose sweep
order decides which witness it finds first.  Each entry is checked on its
own here: it is a fault-free tiling of its base, and the search agrees that
the base has one.  It is also pinned to the search run under the
column-major numbering it was made with (cell (r, c) at bit c*a + r).
"""

from __future__ import annotations

import pytest

from fault_atlas import find_fault_free, search, verify
from fault_atlas.bases import BASE_KEYS
from fault_atlas.classify import FAMILIES
from fault_atlas.tiling import _edge_keys, tiling_from_edges
from fault_atlas.topology import BoardSpec, build_board


def family_bases() -> list[BoardSpec]:
    """Every tileable family's base board, 1 x 2 and 2 x 1 included, in family order."""
    return [build_board(topo, *fam.base) for topo, families in FAMILIES.items()
            for fam in families if fam.tileable]


def column_major(board: BoardSpec) -> tuple[list[int], list[int]]:
    """The search's sweep with every board swept column by column: cell (r, c) is bit c*a + r."""
    return [*range(board.a)], [*range(0, board.area, board.a)]


def test_table_covers_exactly_the_family_bases():
    bases = family_bases()
    assert len(bases) == len(set(bases)) == 20
    assert set(BASE_KEYS) == {(b.topology.value, b.a, b.b) for b in bases}


@pytest.mark.parametrize("board", family_bases(), ids=str)
def test_entry_is_a_fault_free_tiling(board):
    keys = BASE_KEYS[board.topology.value, board.a, board.b]
    assert verify(board, tiling_from_edges(board, keys)).fault_free


@pytest.mark.parametrize("board", family_bases(), ids=str)
def test_search_finds_the_base_tileable(board):
    assert find_fault_free(board).status == "found"


@pytest.mark.parametrize("board", family_bases(), ids=str)
def test_entry_equals_the_searched_witness(board, monkeypatch):
    monkeypatch.setattr(search, "_sweep", column_major)
    searched = tuple(sorted(_edge_keys(find_fault_free(board).witness)))
    assert BASE_KEYS[board.topology.value, board.a, board.b] == searched
