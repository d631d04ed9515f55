"""Tilings, matching/fault verification, and the JSON witness format.

Parsing and semantic validation are deliberately separate: `decode` accepts
any structurally well-formed document (wrong domino counts included), and
`verify` then reports the defects, so a bad witness yields a structured
report rather than a crash.

None of them builds a table of the board's placements or fault curves: each
domino's cells and fault curve are computed from its crossing edge.  `decode`
therefore does work in proportion to the document, whatever board it claims;
`verify` also counts coverage per cell of the board.
"""

from __future__ import annotations

import json
from itertools import repeat
from typing import Iterable, NamedTuple

from .errors import InvalidWitnessError, WitnessDecodeError
from .topology import (
    BoardSpec,
    Cell,
    CrossingEdge,
    Placement,
    Topology,
    _curve_id,
    _edge_cells,
    build_board,
)

EdgeKey = tuple[str, int, int]  # (axis, line, offset) of a domino's crossing edge


class Tiling(NamedTuple):
    """A set of placements claimed to be a perfect, fault-free cover."""

    board: BoardSpec
    dominoes: frozenset[Placement]


def _edge_keys(tiling: Tiling) -> frozenset[EdgeKey]:
    return frozenset(p.edge for p in tiling.dominoes)  # a CrossingEdge is its own edge key


class VerificationReport(NamedTuple):
    matching_valid: bool
    uncovered_cells: tuple[Cell, ...]
    doubly_covered_cells: tuple[Cell, ...]
    curve_crossings: dict[int, int]
    uncrossed_curves: tuple[int, ...]
    fault_free: bool


def verify(board: BoardSpec, tiling: Tiling) -> VerificationReport:
    """Check perfect-matching validity and fault-curve coverage.

    fault_free holds iff the matching is valid and every fault curve is
    crossed by at least one domino.  Raises InvalidWitnessError if any
    placement does not belong to the board.
    """
    if tiling.board != board:
        raise InvalidWitnessError(f"tiling is for {tiling.board}, not {board}")
    return _report(board, tiling.dominoes)  # each Placement is an (edge, cells) pair


def _verify_keys(board: BoardSpec, keys: Iterable[EdgeKey]) -> VerificationReport:
    """verify() for a tiling given as edge keys, each domino's cells implied by its key."""
    return _report(board, zip(keys, repeat(None)))


def _report(board: BoardSpec,
            dominoes: Iterable[tuple[EdgeKey, tuple[Cell, Cell] | None]]) -> VerificationReport:
    """The verification core, over (edge key, declared cells or None) pairs."""
    a, b = board.a, board.b
    coverage = bytearray(board.area)
    hits = {"h": [0] * a, "v": [0] * b}  # dominoes across each grid line
    for (axis, line, offset), declared in dominoes:
        cells = _edge_cells(board, axis, line, offset)
        if cells is None or (declared is not None and declared != cells
                             and set(declared) != set(cells)):
            raise InvalidWitnessError(f"foreign placement {(axis, line, offset)} on board {board}")
        (r, c), (s, d) = cells
        coverage[r * b + c] += 1
        coverage[s * b + d] += 1
        hits[axis][line] += 1
    crossings = dict.fromkeys(range(_curve_id(board, "v", b)), 0)
    for axis, counts in hits.items():
        for line, n in enumerate(counts):
            if n:
                crossings[_curve_id(board, axis, line)] += n
    if coverage.count(1) == board.area:  # every cell covered once: nothing to list
        uncovered = doubled = ()
    else:
        uncovered = tuple(divmod(i, b) for i, n in enumerate(coverage) if n == 0)
        doubled = tuple(divmod(i, b) for i, n in enumerate(coverage) if n > 1)
    matching_valid = not uncovered and not doubled
    uncrossed = tuple(cid for cid, n in sorted(crossings.items()) if n == 0)
    return VerificationReport(
        matching_valid=matching_valid,
        uncovered_cells=uncovered,
        doubly_covered_cells=doubled,
        curve_crossings=crossings,
        uncrossed_curves=uncrossed,
        fault_free=matching_valid and not uncrossed,
    )


def tiling_from_edges(board: BoardSpec, edges: Iterable[EdgeKey]) -> Tiling:
    """Build a tiling from (axis, line, offset) edge keys known to exist on the board."""
    dominoes = []
    for key in edges:
        cells = _edge_cells(board, *key)
        if cells is None:
            raise InvalidWitnessError(f"no edge {key} on {board}")
        dominoes.append(Placement(CrossingEdge(*key), cells))
    return Tiling(board, frozenset(dominoes))


# The canonical document is json.dumps(doc, indent=2) + "\n"; these templates
# write the same bytes directly, one per domino.
_DOCUMENT = '{\n  "topology": "%s",\n  "a": %d,\n  "b": %d,\n  "dominoes": %s\n}\n'
_DOMINO = (
    '    {\n      "edge": [\n        "%s",\n        %d,\n        %d\n      ],\n'
    '      "cells": [\n        [\n          %d,\n          %d\n        ],\n'
    '        [\n          %d,\n          %d\n        ]\n      ]\n    }'
)
# Readers cap a witness document at this many bytes per domino of its board.  The
# canonical document takes about 193 (the header included) on boards to 512 x 512.
DOCUMENT_BYTES_PER_DOMINO = 512


def encode(tiling: Tiling) -> str:
    """Serialize to the canonical witness document (UTF-8 JSON text), dominoes in edge-key order.

    Each domino's cells are written as its edge implies them; raises
    InvalidWitnessError for a placement that does not belong to the board.
    """
    return _encode_keys(tiling.board, (p.edge for p in tiling.dominoes))


def _encode_keys(board: BoardSpec, keys: Iterable[EdgeKey]) -> str:
    """encode() for a tiling given as edge keys, each domino's cells implied by its key."""
    rows = []
    for key in sorted(keys):
        cells = _edge_cells(board, *key)
        if cells is None:
            raise InvalidWitnessError(f"no edge {tuple(key)} on {board}")
        rows.append(_DOMINO % (*key, *cells[0], *cells[1]))
    dominoes = "[\n" + ",\n".join(rows) + "\n  ]" if rows else "[]"
    return _DOCUMENT % (board.topology.value, board.a, board.b, dominoes)


def decode(text: str) -> Tiling:
    """Parse a witness document.

    Structural errors (bad JSON, unknown edges, cells that disagree with the
    edge) raise WitnessDecodeError; a wrong domino count parses fine and is
    left for verify() to report.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError; deep nesting recurses
        raise WitnessDecodeError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise WitnessDecodeError("witness document must be a JSON object")
    try:
        topology = Topology(doc["topology"])
        a = doc["a"]
        b = doc["b"]
        entries = doc["dominoes"]
    except (KeyError, ValueError) as exc:
        raise WitnessDecodeError(f"missing or invalid field: {exc}") from exc
    if type(a) is not int or type(b) is not int or a < 1 or b < 1:
        raise WitnessDecodeError(f"dimension mismatch: bad dimensions {a!r} x {b!r}")
    if not isinstance(entries, list):
        raise WitnessDecodeError("dominoes must be a list")
    board = build_board(topology, a, b)
    dominoes = []
    seen = set()
    for entry in entries:
        try:
            axis, line, offset = entry["edge"]
            cells = entry["cells"]
        except (KeyError, TypeError, ValueError) as exc:
            raise WitnessDecodeError(f"malformed domino entry {entry!r}: {exc}") from exc
        if not isinstance(axis, str) or type(line) is not int or type(offset) is not int:
            raise WitnessDecodeError(f"malformed edge id {entry['edge']!r}")
        key = (axis, line, offset)
        expected = _edge_cells(board, axis, line, offset)
        if expected is None:
            raise WitnessDecodeError(f"unknown edge id {key} on {board}")
        if key in seen:
            raise WitnessDecodeError(f"duplicate edge id {key}")
        seen.add(key)
        try:
            (r0, c0), (r1, c1) = cells
        except (TypeError, ValueError) as exc:
            raise WitnessDecodeError(f"malformed cells in {entry!r}: {exc}") from exc
        declared = ((r0, c0), (r1, c1))  # in either order, and as ints: true == 1 and 1.0 == 1
        if (expected not in (declared, declared[::-1])
                or not type(r0) is type(c0) is type(r1) is type(c1) is int):
            raise WitnessDecodeError(f"cells {cells!r} disagree with edge {key} -> {sorted(expected)}")
        dominoes.append(Placement(CrossingEdge(axis, line, offset), expected))
    return Tiling(board, frozenset(dominoes))


def decode_for_board(text: str, board: BoardSpec) -> Tiling:
    """Decode and reject witnesses written for a different board."""
    tiling = decode(text)
    if tiling.board != board:
        raise WitnessDecodeError(f"witness is for {tiling.board}, expected {board}")
    return tiling
