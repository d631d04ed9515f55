"""Witness construction: base witnesses, expansion chains, file cache.

A tileable board's witness comes from the cache, else from its nearest
family (fewest double rows and columns, then lowest id): the base board's
edge keys grown by n double rows in one cut and then by m double columns in
one cut.  A family whose base is the board itself (1 x 2, say) is a chain of
length 0.  Base witnesses are checked-in data (`bases.py`), re-verified when
first loaded; no search runs.  The grown keys are verified once, and
placements are built once, for the returned witness.
"""

from __future__ import annotations

import functools
import os
import stat
from pathlib import Path

from .classify import classify, matching_tileable_families
from .errors import (ExpansionFailedError, InvalidWitnessError, InvariantError, WitnessDecodeError,
                     WitnessUnavailableError)
from .expansion import COLS, ROWS, _grow_keys
from .tiling import (DOCUMENT_BYTES_PER_DOMINO, EdgeKey, Tiling, _verify_keys, decode_for_board, encode,
                     tiling_from_edges, verify)
from .topology import BoardSpec, Topology, build_board

CACHE_ENV = "FAULT_ATLAS_CACHE"


class WitnessStore:
    """One JSON witness file per board in a configurable directory.

    An entry is read up to DOCUMENT_BYTES_PER_DOMINO bytes per domino of its
    board; a longer one is a miss, like a corrupt one, and save replaces it.
    """

    def __init__(self, directory: "str | Path") -> None:
        self.directory = Path(directory)

    def path_for(self, board: BoardSpec) -> Path:
        return self.directory / f"{board.topology.value}_{board.a}x{board.b}.json"

    def load(self, board: BoardSpec) -> Tiling | None:
        path = self.path_for(board)
        limit = DOCUMENT_BYTES_PER_DOMINO * (board.area // 2)
        try:
            # Opened without blocking, and read only if a regular file: a FIFO or a
            # device in the cache is a miss, which save then replaces.
            with open(path, "rb",
                      opener=lambda name, flags: os.open(name, flags | getattr(os, "O_NONBLOCK", 0))) as file:
                if not stat.S_ISREG(os.fstat(file.fileno()).st_mode):
                    return None
                data = file.read(limit + 1)
            if len(data) > limit:
                return None  # longer than any witness of the board; rebuild
            tiling = decode_for_board(data.decode("utf-8"), board)
        except OSError:
            return None  # missing, or unreadable; a miss either way
        except (UnicodeDecodeError, WitnessDecodeError):
            return None  # corrupt entry, or one written for another board; rebuild
        if not verify(board, tiling).fault_free:
            return None  # stale or tampered cache entry; rebuild
        return tiling

    def save(self, tiling: Tiling) -> Path:
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.path_for(tiling.board)
        # Write beside the entry, then rename over it, so no reader sees half a file.
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_text(encode(tiling), encoding="utf-8")
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
        return path


def default_store(explicit: "str | Path | None" = None) -> WitnessStore | None:
    """Resolve the cache directory: FAULT_ATLAS_CACHE overrides any explicit dir."""
    env = os.environ.get(CACHE_ENV)
    if env:
        return WitnessStore(env)
    if explicit is not None:
        return WitnessStore(explicit)
    return None


@functools.lru_cache(maxsize=64)  # one entry per tileable family base, 20 in all
def _base_witness(board: BoardSpec) -> frozenset[EdgeKey]:
    from .bases import BASE_KEYS  # imported on first use: a witness read from the store never needs it

    try:
        keys = frozenset(BASE_KEYS[board.topology.value, board.a, board.b])
        report = _verify_keys(board, keys)
    except (KeyError, InvalidWitnessError) as exc:
        raise InvariantError(f"no base witness for {board}") from exc
    if not report.fault_free:
        raise InvariantError(f"base witness for {board} fails verification")
    return keys


def _expansion_chain(board: BoardSpec) -> frozenset[EdgeKey]:
    """The edge keys grown from the nearest family base, one cut per axis."""
    fam, n, m = min(matching_tileable_families(board), key=lambda t: (t[1] + t[2], t[0].id))
    base = build_board(board.topology, *fam.base)
    current = base, _base_witness(base)
    try:
        for axis, k in ((ROWS, n), (COLS, m)):
            if k:
                current = _grow_keys(*current, axis, k)
    except ExpansionFailedError as exc:
        raise WitnessUnavailableError(f"the nearest family chain grows no witness for {board}") from exc
    grown, keys = current
    if board.topology is Topology.TORUS and board.a < board.b:  # tori are swap-symmetric: swap rows and columns
        grown = build_board(Topology.TORUS, grown.b, grown.a)
        keys = frozenset(("v" if axis == "h" else "h", line, off) for axis, line, off in keys)
    if grown != board:
        raise InvariantError(f"chain from {fam.base} grew {grown}, not {board}")
    return keys


def witness(board: BoardSpec, *, store: WitnessStore | None = None) -> Tiling:
    """A verified fault-free tiling for a board classified tileable.

    Raises ValueError for boards that are not fault-free tileable and
    WitnessUnavailableError when the nearest family chain fails to grow
    (which is not a negative verdict).
    """
    verdict = classify(board)
    if not verdict.tileable:
        raise ValueError(f"{board} is not fault-free tileable ({verdict.family_id})")
    if store is not None:
        cached = store.load(board)
        if cached is not None:
            return cached
    keys = _expansion_chain(board)
    if not _verify_keys(board, keys).fault_free:
        raise InvariantError(f"witness for {board} fails verification")
    result = tiling_from_edges(board, keys)
    if store is not None:
        store.save(result)
    return result
