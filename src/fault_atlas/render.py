"""ASCII and SVG renderings of tilings on the flattened board picture.

ASCII draws tile outlines on a (2a+1) x (2b+1) character canvas: a wall is
drawn on every grid segment that no domino crosses, so an uncrossed fold
line shows up as an unbroken wall across the whole board.  The border is
closed except where a wrapping tile leaves it, marked with '>' (seam) or 'v'
(glued row edge of a torus).

SVG draws every tile as a rounded rectangle; a wrapping tile is drawn once
on each side of the seam, both halves filled from one shared gradient so the
two copies read as a single tile.  Fault-curve positions are dashed guides.
"""

from __future__ import annotations

from .tiling import Tiling
from .topology import _curve_id, _fold_lines


def ascii_render(tiling: Tiling) -> str:
    a, b = tiling.board.a, tiling.board.b
    grid = [list("+-" * b + "+" if gr % 2 == 0 else "| " * b + "|") for gr in range(2 * a + 1)]
    for p in tiling.dominoes:
        axis, line, offset = p.edge
        if line:  # an interior segment: no wall where a domino crosses it
            if axis == "h":
                grid[2 * line][2 * offset + 1] = " "
            else:
                grid[2 * offset + 1][2 * line] = " "
        elif axis == "v":  # the seam
            for (r, c) in p.cells:
                if c == b - 1:
                    grid[2 * r + 1][2 * b] = ">"
                if c == 0:
                    grid[2 * r + 1][0] = ">"
        else:  # torus glued row edge
            for (r, c) in p.cells:
                if r == a - 1:
                    grid[2 * a][2 * c + 1] = "v"
                if r == 0:
                    grid[0][2 * c + 1] = "v"
    return "\n".join("".join(row) for row in grid) + "\n"


_CELL = 32
_MARGIN = 24
_H_FILL = "#7fb3d5"
_V_FILL = "#a9dfbf"
_WRAP_STOPS = ("#f7dc6f", "#e67e22")


def _num(x: float) -> str:
    """A coordinate, exact up to 10 significant digits; ":g" keeps 6, too few past 1e5."""
    return format(x, ".10g")


def _rect(x: float, y: float, w: float, h: float, fill: str) -> str:
    return (f'  <rect x="{_num(x)}" y="{_num(y)}" width="{_num(w)}" height="{_num(h)}" rx="6" '
            f'fill="{fill}" stroke="#34495e" stroke-width="1.5"/>')


def _guide(x1: float, y1: float, x2: float, y2: float) -> str:
    """A dashed fault-curve guide."""
    return (f'  <line x1="{_num(x1)}" y1="{_num(y1)}" x2="{_num(x2)}" y2="{_num(y2)}" '
            'stroke="#e74c3c" stroke-width="1" stroke-dasharray="6 4"/>')


def svg_render(tiling: Tiling) -> str:
    board = tiling.board
    a, b = board.a, board.b
    width = b * _CELL + 2 * _MARGIN
    height = a * _CELL + 2 * _MARGIN
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}" '
        f'width="{width}" height="{height}">',
        "  <defs>",
    ]
    dominoes = sorted(tiling.dominoes)
    for i, p in enumerate(dominoes):
        if p.is_wrap:
            out.append(
                f'    <linearGradient id="wrap{i}"><stop offset="0" stop-color="{_WRAP_STOPS[0]}"/>'
                f'<stop offset="1" stop-color="{_WRAP_STOPS[1]}"/></linearGradient>'
            )
    out.append("  </defs>")
    out.append(f'  <rect x="{_MARGIN}" y="{_MARGIN}" width="{b * _CELL}" height="{a * _CELL}" '
               'fill="#fdfefe" stroke="#2c3e50" stroke-width="2"/>')

    def cx(c: int) -> float:
        return _MARGIN + c * _CELL

    def cy(r: int) -> float:
        return _MARGIN + r * _CELL

    pad = 2.5
    for i, p in enumerate(dominoes):
        (r1, c1), (r2, c2) = sorted(p.cells)
        if not p.is_wrap:
            x = cx(min(c1, c2)) + pad
            y = cy(min(r1, r2)) + pad
            w = (abs(c2 - c1) + 1) * _CELL - 2 * pad
            h = (abs(r2 - r1) + 1) * _CELL - 2 * pad
            fill = _H_FILL if p.edge.axis == "v" else _V_FILL
            out.append(_rect(x, y, w, h, fill))
        else:
            # one tile, two drawn copies sharing a gradient
            fill = f"url(#wrap{i})"
            for (r, c) in p.cells:
                out.append(_rect(cx(c) + pad, cy(r) + pad, _CELL - 2 * pad, _CELL - 2 * pad, fill))
    for axis in ("h", "v"):  # guides in fault-curve order, a Moebius curve's two lines together
        for line in sorted(_fold_lines(board, axis), key=lambda n: (_curve_id(board, axis, n), n)):
            if axis == "h":
                out.append(_guide(cx(0), cy(line), cx(b), cy(line)))
                if line == 0:  # glued row edge appears at top and bottom
                    out.append(_guide(cx(0), cy(a), cx(b), cy(a)))
            else:
                out.append(_guide(cx(line), cy(0), cx(line), cy(a)))
                if line == 0:  # the seam appears on both sides of the picture
                    out.append(_guide(cx(b), cy(0), cx(b), cy(a)))
    out.append("</svg>")
    return "\n".join(out) + "\n"
