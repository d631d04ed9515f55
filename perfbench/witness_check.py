"""Independent checker for fault-atlas witness documents.

It shares no code with the package: the cells behind each crossing edge, the
exact cover and every fold locus are worked out here from raw coordinates.
A locus is traced by walking its segments: a horizontal fold runs across the
columns and through the seam, keeping its height on a cylinder or torus and
flipping from line l to line a-l across the Moebius twist; on a torus
horizontal line 0 is the glued row edge; the seam is vertical line 0 on every
wrapped board.  A witness is accepted only if every cell is covered exactly
once and every locus is crossed by at least one domino.
"""

from __future__ import annotations

import json

TOPOLOGIES = ("rectangle", "cylinder", "torus", "mobius")


class WitnessRejected(ValueError):
    """The document is not a fault-free tiling of the expected board."""


def segment_cells(topology: str, a: int, b: int, axis: str, line: int, offset: int):
    """The two cells on either side of a grid segment, or None if no domino can straddle it.

    axis "h": segment of horizontal line `line` at column `offset` (a vertical
    domino).  axis "v": segment of vertical line `line` at row `offset` (a
    horizontal domino).  On a Moebius strip seam offset r joins (r, b-1) with
    (a-1-r, 0); with b == 1 offsets r and a-1-r name one segment, written with
    the smaller offset.
    """
    if axis == "h":
        if not 0 <= offset < b:
            return None
        if 1 <= line <= a - 1:
            return ((line - 1, offset), (line, offset))
        if line == 0 and topology == "torus" and a >= 2:
            return ((a - 1, offset), (0, offset))
        return None
    if axis != "v" or not 0 <= offset < a:
        return None
    if 1 <= line <= b - 1:
        return ((offset, line - 1), (offset, line))
    if line != 0 or topology == "rectangle":
        return None
    if topology == "mobius":
        mirror = a - 1 - offset
        if b >= 2:
            return ((offset, b - 1), (mirror, 0))
        return ((offset, 0), (mirror, 0)) if offset < mirror else None
    return ((offset, b - 1), (offset, 0)) if b >= 2 else None


def fold_loci(topology: str, a: int, b: int) -> list[frozenset]:
    """Every fold locus of the board as the set of segments it consists of."""
    loci: list[frozenset] = []
    seen: set = set()
    starts = range(a) if topology == "torus" else range(1, a)
    for start in starts:
        if ("h", start, 0) in seen:
            continue
        segments = set()
        line, col = start, 0
        while ("h", line, col) not in segments:
            segments.add(("h", line, col))
            col += 1
            if col == b:
                if topology == "rectangle":
                    break
                col = 0
                if topology == "mobius":
                    line = a - line
        seen |= segments
        loci.append(frozenset(segments))
    columns = range(1, b) if topology == "rectangle" else range(b)
    for line in columns:
        loci.append(frozenset(("v", line, r) for r in range(a)))
    return loci


def _int(value) -> bool:
    return type(value) is int


def check_document(doc, topology: str, a: int, b: int) -> int:
    """Accept a parsed witness for board (topology, a, b); returns the domino count.

    Raises WitnessRejected naming the first defect found.
    """
    if not isinstance(doc, dict):
        raise WitnessRejected("document is not a JSON object")
    claimed = (doc.get("topology"), doc.get("a"), doc.get("b"))
    if claimed != (topology, a, b) or not (_int(claimed[1]) and _int(claimed[2])):
        raise WitnessRejected(f"written for board {claimed}, expected {(topology, a, b)}")
    entries = doc.get("dominoes")
    if not isinstance(entries, list):
        raise WitnessRejected("dominoes is not a list")
    cover = {}
    crossed = set()
    for entry in entries:
        try:
            axis, line, offset = entry["edge"]
            declared = {tuple(entry["cells"][0]), tuple(entry["cells"][1])}
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise WitnessRejected(f"malformed domino {entry!r}") from exc
        if not (isinstance(axis, str) and _int(line) and _int(offset)):
            raise WitnessRejected(f"malformed edge {entry['edge']!r}")
        segment = (axis, line, offset)
        cells = segment_cells(topology, a, b, axis, line, offset)
        if cells is None:
            raise WitnessRejected(f"no domino straddles segment {segment}")
        if declared != set(cells):
            raise WitnessRejected(f"cells {sorted(declared)} do not lie across segment {segment}")
        if segment in crossed:
            raise WitnessRejected(f"segment {segment} used twice")
        crossed.add(segment)
        for cell in cells:
            cover[cell] = cover.get(cell, 0) + 1
    for r in range(a):
        for c in range(b):
            times = cover.get((r, c), 0)
            if times != 1:
                raise WitnessRejected(f"cell {(r, c)} covered {times} times")
    for locus in fold_loci(topology, a, b):
        if crossed.isdisjoint(locus):
            raise WitnessRejected(f"fold locus through {sorted(locus)[0]} is not crossed")
    return len(entries)


def check_text(text: str, topology: str, a: int, b: int) -> int:
    """Parse witness JSON text and check it with check_document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise WitnessRejected(f"not valid JSON: {exc}") from exc
    return check_document(doc, topology, a, b)
