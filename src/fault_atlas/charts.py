"""X/O tileability charts: deterministic, diffable golden-file format.

Line 1 is "<topology> <max_a> <max_b>"; then max_a rows of max_b characters,
X for fault-free tileable and O for not, row index a ascending top to
bottom, column index b ascending left to right.
"""

from __future__ import annotations

from typing import NamedTuple

from .classify import classify
from .topology import Topology, build_board


class Chart(NamedTuple):
    topology: Topology
    max_a: int
    max_b: int
    cells: tuple[str, ...]  # one row string of X/O per height a


def build_chart(topology: Topology | str, max_a: int) -> Chart:
    topo = Topology(topology)
    rows = []
    for a in range(1, max_a + 1):
        row = []
        for b in range(1, max_a + 1):
            row.append("X" if classify(build_board(topo, a, b)).tileable else "O")
        rows.append("".join(row))
    return Chart(topo, max_a, max_a, tuple(rows))


def chart_text(chart: Chart) -> str:
    lines = [f"{chart.topology.value} {chart.max_a} {chart.max_b}"]
    lines.extend(chart.cells)
    return "\n".join(lines) + "\n"
