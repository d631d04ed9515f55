"""ASCII and SVG renderings."""

from __future__ import annotations

import hashlib
import re
import xml.etree.ElementTree as ET

import pytest

from fault_atlas import (
    Tiling,
    Topology,
    ascii_render,
    build_board,
    classify,
    fault_curves,
    find_fault_free,
    placements,
    svg_render,
    witness,
)

# SHA-256 of the ascii and svg renderings of one witness per topology; the
# cylinder, torus and Moebius ones have seam tiles, the torus a glued-row tile.
RENDER_SHA256 = {
    ("rectangle", 5, 6): ("46fa008b1956057de1925fac98ceca39c42c2b53b3f64e6999537dafb43567aa",
                          "4f9306c5b7e212e3f9918e4fd43d8301479b033687f953efd1ed9a366950e245"),
    ("cylinder", 6, 7): ("a872ebf744a3c26c74741fa85b02b45551543a7d1f6f9efdf579659ecc244cb2",
                         "578b151d936f62a6fc8755cd48ea9400dac34160fbc7a825b1b73ad151e71a87"),
    ("torus", 8, 7): ("15cd799b2e334f4f80eae2635f27e588a4612b83dfc50a703770c87ef9c2c377",
                      "bbadbf22a754fdb9b6aeb43c4cfb9bf31f39bd5d93067924dc7131a0e8d49a60"),
    ("mobius", 5, 6): ("d78516581f375cc498d4896e65a556daf9ff4c9d26f67eecc9ed65eb1534dcf4",
                       "2b24828b32340d9ba6bca7463f39d77c78b620899a9a900529947932c6d1dbdd"),
}


@pytest.mark.parametrize("dims", sorted(RENDER_SHA256))
def test_render_bytes_match_pinned_digests(dims):
    w = witness(build_board(*dims))
    digests = tuple(hashlib.sha256(render(w).encode("utf-8")).hexdigest()
                    for render in (ascii_render, svg_render))
    assert digests == RENDER_SHA256[dims]


def test_rendering_builds_no_board_table():
    tilings = [witness(build_board(*dims)) for dims in sorted(RENDER_SHA256)]
    tables = (placements.cache_info(), fault_curves.cache_info())
    for w in tilings:
        ascii_render(w)
        svg_render(w)
    assert (placements.cache_info(), fault_curves.cache_info()) == tables


def _interior_wall_rows(text: str, a: int, b: int) -> list[str]:
    lines = text.splitlines()
    assert len(lines) == 2 * a + 1
    return [lines[2 * line] for line in range(1, a)]


class TestAscii:
    def test_5x6_shape_and_no_open_fold(self, witness_5x6):
        text = ascii_render(witness_5x6)
        lines = text.splitlines()
        assert len(lines) == 11  # 2*5 + 1 rows for a 5-row board
        assert all(len(line) == 13 for line in lines)
        # a fully walled interior row or column would be a visible fold
        for row in _interior_wall_rows(text, 5, 6):
            assert " " in row[1::2], f"fold line left open: {row!r}"
        for col in range(1, 6):
            chars = [lines[2 * r + 1][2 * col] for r in range(5)]
            assert " " in chars, f"fold column left open: {chars!r}"

    def test_wrap_tiles_marked(self):
        w = find_fault_free(build_board("cylinder", 4, 6)).witness
        text = ascii_render(w)
        assert ">" in text

    @pytest.mark.parametrize("topo", list(Topology), ids=lambda t: t.value)
    def test_wall_exactly_where_no_domino_crosses(self, topo):
        # every single placement on boards of area <= 12 and every witness with sides <= 12
        def tilings():
            for a in range(1, 13):
                for b in range(1, 13):
                    board = build_board(topo, a, b)
                    if a * b <= 12:
                        for p in placements(board):
                            yield Tiling(board, frozenset([p]))
                    if classify(board).tileable:
                        yield witness(board)

        for tiling in tilings():
            a, b = tiling.board.a, tiling.board.b
            crossed = {p.edge for p in tiling.dominoes}
            lines = ascii_render(tiling).splitlines()
            for line in range(1, a):
                for c in range(b):
                    assert (lines[2 * line][2 * c + 1] == " ") is (("h", line, c) in crossed), \
                        (tiling.board, sorted(crossed), ("h", line, c))
            for line in range(1, b):
                for r in range(a):
                    assert (lines[2 * r + 1][2 * line] == " ") is (("v", line, r) in crossed), \
                        (tiling.board, sorted(crossed), ("v", line, r))

    def test_seam_tile_beside_its_interior_wall(self):
        # on cylinder 1'x2 the seam tile's two cells also meet across line 1, which no domino crosses
        board = build_board("cylinder", 1, 2)
        seam = next(p for p in placements(board) if p.edge == ("v", 0, 0))
        assert ascii_render(Tiling(board, frozenset([seam]))) == "+-+-+\n> | >\n+-+-+\n"

    def test_torus_row_wrap_marked(self):
        # every fault-free torus tiling crosses the glued row edge
        w = witness(build_board("torus", 4, 4))
        text = ascii_render(w)
        assert "v" in text and ">" in text


class TestSvg:
    def test_well_formed_and_sized(self, witness_5x6):
        doc = svg_render(witness_5x6)
        root = ET.fromstring(doc)
        assert root.tag.endswith("svg")
        assert 'width="240"' in doc and 'height="208"' in doc  # 32-unit cells + margins

    def test_wrap_tile_drawn_twice_with_shared_gradient(self):
        board = build_board("cylinder", 4, 6)
        w = find_fault_free(board).witness
        doc = svg_render(w)
        wrap_ids = re.findall(r'id="(wrap\d+)"', doc)
        assert wrap_ids, "expected wrapping tiles on a fault-free cylinder"
        for gid in wrap_ids:
            uses = re.findall(rf'fill="url\(#{gid}\)"', doc)
            assert len(uses) == 2, f"wrap tile {gid} should be drawn on both sides"

    def test_fault_guides_dashed(self, witness_5x6):
        doc = svg_render(witness_5x6)
        assert doc.count("stroke-dasharray") == 9  # one per fault curve on 5x6

    def test_seam_guide_drawn_on_both_sides(self):
        board = build_board("mobius", 4, 3)
        w = find_fault_free(board).witness
        doc = svg_render(w)
        ET.fromstring(doc)
        # pair {1,3} draws 2 guides, self line {2} one; seam twice, lines 1..2 once each
        assert doc.count("stroke-dasharray") == 7

    @pytest.mark.parametrize("topo", list(Topology), ids=lambda t: t.value)
    def test_guides_follow_the_fault_curve_table(self, topo):
        # the guides' (x1, y1, x2, y2) in cells, in the order fault_curves lists curves and lines
        def cells(coords):
            return tuple((float(v) - 24) / 32 for v in coords)

        for a in range(1, 13):
            for b in range(1, 13):
                board = build_board(topo, a, b)
                expected = []
                for curve in fault_curves(board):
                    for line in sorted(curve.lines):
                        if curve.axis == "horizontal":
                            expected += [(0, line, b, line)] + [(0, a, b, a)] * (line == 0)
                        else:
                            expected += [(line, 0, line, a)] + [(b, 0, b, a)] * (line == 0)
                doc = svg_render(Tiling(board, frozenset()))
                drawn = re.findall(r'<line x1="([^"]+)" y1="([^"]+)" x2="([^"]+)" y2="([^"]+)"', doc)
                assert [cells(guide) for guide in drawn] == expected, board

    def test_coordinates_exact_on_long_boards(self):
        # from about 3,125 cells on, coordinates pass 1e5 and need more than six significant digits
        w = witness(build_board("cylinder", 4, 3200))
        doc = svg_render(w)
        xs = [float(x) for x in re.findall(r'<rect x="([^"]+)"[^>]* rx="6"', doc)]
        assert len(xs) == len(w.dominoes) + sum(p.is_wrap for p in w.dominoes)  # wrap tiles twice
        assert all((x - 26.5) % 32 == 0 for x in xs)
