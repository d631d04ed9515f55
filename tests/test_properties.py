"""Property tests: the witness codec round trip, decode on mutated documents,
expansion preserving verification, and counting feasibility agreeing with the
classification.

Hypothesis is optional: without it this module is skipped.
"""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import json  # noqa: E402

from fault_atlas import (  # noqa: E402
    ExpansionFailedError,
    Topology,
    WitnessDecodeError,
    build_board,
    classify,
    counting_feasible,
    decode,
    encode,
    expand,
    fault_curves,
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


def _fault_free(board, tiling):
    """The verdict from first principles: every cell covered once, every fault curve crossed."""
    cells = sorted(cell for p in tiling.dominoes for cell in p.cells)
    crossed = {("horizontal" if p.edge.axis == "h" else "vertical", p.edge.line) for p in tiling.dominoes}
    return cells == [(r, c) for r in range(board.a) for c in range(board.b)] and all(
        any((curve.axis, line) in crossed for line in curve.lines) for curve in fault_curves(board))


_values = st.one_of(st.integers(-2, 16), st.sampled_from(["h", "v", "x", None, 1.5, [], {}]))
_topologies = st.sampled_from([t.value for t in Topology] + ["klein", 3])


@st.composite
def _mutated(draw):
    """An encoded witness with one domino dropped, duplicated or altered, a header field
    changed, or the text truncated."""
    text = encode(witness(draw(tileable_boards)))
    doc = json.loads(text)
    dominoes = doc["dominoes"]
    i = draw(st.integers(0, len(dominoes) - 1))
    kind = draw(st.sampled_from(["drop", "duplicate", "edge", "cell", "a", "b", "topology", "truncate"]))
    if kind == "drop":
        del dominoes[i]
    elif kind == "duplicate":
        dominoes.append(dominoes[i])
    elif kind == "edge":
        dominoes[i]["edge"][draw(st.integers(0, 2))] = draw(_values)
    elif kind == "cell":
        dominoes[i]["cells"][draw(st.integers(0, 1))][draw(st.integers(0, 1))] = draw(_values)
    elif kind in ("a", "b"):
        doc[kind] = draw(_values)
    elif kind == "topology":
        doc["topology"] = draw(_topologies)
    else:
        return text[:draw(st.integers(0, len(text) - 1))]
    return json.dumps(doc)


@settings(max_examples=200, deadline=None, database=None)
@given(_mutated())
def test_decode_of_mutated_witness(text):
    try:
        tiling = decode(text)
    except WitnessDecodeError:
        return
    assert verify(tiling.board, tiling).fault_free == _fault_free(tiling.board, tiling)


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
