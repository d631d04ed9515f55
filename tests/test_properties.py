"""Property tests: the witness codec round trip, expansion preserving verification,
and counting feasibility agreeing with the classification.

Hypothesis is optional: without it this module is skipped.
"""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from fault_atlas import (  # noqa: E402
    ExpansionFailedError,
    Topology,
    build_board,
    classify,
    counting_feasible,
    decode,
    encode,
    expand,
    verify,
    witness,
)
from fault_atlas.tiling import decode_for_board  # noqa: E402

TILEABLE = [build_board(topo, a, b) for topo in Topology for a in range(1, 15) for b in range(1, 15)
            if classify(build_board(topo, a, b)).tileable]

tileable_boards = st.sampled_from(TILEABLE)
examples = settings(max_examples=40, deadline=None, database=None)


@examples
@given(tileable_boards)
def test_codec_round_trip(board):
    tiling = witness(board)
    text = encode(tiling)
    assert decode(text) == tiling
    assert decode_for_board(text, board) == tiling
    assert encode(decode(text)) == text


@examples
@given(tileable_boards, st.sampled_from(["rows", "cols"]))
def test_expand_keeps_verify(board, axis):
    da, db = (2, 0) if axis == "rows" else (0, 2)
    target = build_board(board.topology, board.a + da, board.b + db)
    if not classify(target).tileable:  # 1 x 2 grows out of every family
        with pytest.raises(ExpansionFailedError):
            expand(witness(board), axis)
        return
    grown = expand(witness(board), axis)
    assert grown.board == target
    assert verify(target, grown).fault_free


even_boards = st.builds(build_board, st.sampled_from(list(Topology)),
                        st.integers(1, 64), st.integers(1, 64)).filter(lambda bd: bd.area % 2 == 0)


@settings(max_examples=100, deadline=None, database=None)
@given(even_boards)
def test_counting_agrees_with_classify(board):
    assert counting_feasible(board).feasible == classify(board).tileable
