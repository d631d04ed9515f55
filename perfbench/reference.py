"""Expected outputs made apart from the code under test."""

from __future__ import annotations

from pathlib import Path

GOLDEN_DIR = Path("tests") / "golden"

# Minimum required tiles quoted in the paper (acceptance criterion 1).
PAPER_MIN_REQUIRED = {
    ("rectangle", 6, 6): 20,
    ("cylinder", 5, 6): 17,
    ("cylinder", 6, 5): 12,
    ("cylinder", 4, 5): 9,
    ("torus", 6, 5): 14,
}


def graham_tileable(a: int, b: int) -> bool:
    """Graham, "Fault-free tilings of rectangles" (The Mathematical Gardner, 1981).

    An a x b rectangle has a fault-free domino tiling iff ab is even, both
    sides are at least 5, and it is not 6 x 6.  The 1 x 2 board is added: its
    one domino crosses its one fold line.
    """
    if sorted((a, b)) == [1, 2]:
        return True
    return (a * b) % 2 == 0 and min(a, b) >= 5 and (a, b) != (6, 6)


def chart_text(topology: str, size: int) -> str:
    """The expected `census --max size` chart: Graham's rule or the paper's golden chart."""
    if topology != "rectangle":
        return (GOLDEN_DIR / f"{topology}_{size}.txt").read_text(encoding="utf-8")
    rows = ["".join("X" if graham_tileable(a, b) else "O" for b in range(1, size + 1))
            for a in range(1, size + 1)]
    return "\n".join([f"rectangle {size} {size}"] + rows) + "\n"


def x_cells(chart: str) -> list[tuple[int, int]]:
    """(a, b) of every X in a chart text."""
    rows = chart.splitlines()[1:]
    return [(a, b) for a, row in enumerate(rows, 1) for b, mark in enumerate(row, 1) if mark == "X"]
