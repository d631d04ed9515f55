"""Witness construction: base witnesses, expansion chains, file cache.

A tileable board's witness comes from the cache, else from its nearest
family (fewest double rows and columns, then lowest id): the base board's
edge keys grown by n double rows in one cut and then by m double columns in
one cut.  A family whose base is the board itself (1 x 2, say) is a chain of
length 0.  Base witnesses are checked-in data (`bases.py`), re-verified when
first loaded; no search runs.

A cut path depends only on its family step: the row cut on the base alone,
the column cut on the base and n.  `_chain_cut` keeps each step's path, so a
process runs one cut search per family step, however many boards share it
(a 20 x 20 census asks for a few hundred cuts and searches at most 30).  The
grown keys are verified once per board and written to the cache straight
from the keys; placements are built only for a returned `Tiling`.
"""

from __future__ import annotations

import functools
import os
import stat
from pathlib import Path
from typing import Collection

from .classify import classify, matching_tileable_families
from .errors import (ExpansionFailedError, InvalidWitnessError, InvariantError, WitnessDecodeError,
                     WitnessUnavailableError)
from .expansion import COLS, ROWS, _cut_path, _lay_bands
from .tiling import (DOCUMENT_BYTES_PER_DOMINO, EdgeKey, Tiling, _encode_keys, _verify_keys, decode_for_board,
                     encode, tiling_from_edges, verify)
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
        return self._save_text(tiling.board, encode(tiling))

    def _save_text(self, board: BoardSpec, text: str) -> Path:
        """Write an encoded witness document as `board`'s entry, making the directory if missing."""
        path = self.path_for(board)
        # Write beside the entry, then rename over it, so no reader sees half a file.
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            file = open(tmp, "w", encoding="utf-8")
        except FileNotFoundError:
            self.directory.mkdir(parents=True, exist_ok=True)
            file = open(tmp, "w", encoding="utf-8")
        try:
            with file:
                file.write(text)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
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


@functools.lru_cache(maxsize=256)  # one path per family step: at most 30 in a 20 x 20 census
def _chain_cut(base: BoardSpec, n: int, axis: str) -> tuple[int, ...]:
    """The cut path of a chain step from family base `base`: along `axis` on the base
    grown by n double rows (the row step has n = 0)."""
    board, keys = base, _base_witness(base)
    if n:
        board, rows = _lay_bands(base, keys, ROWS, _chain_cut(base, 0, ROWS), n)
        keys = frozenset(rows)
    return tuple(_cut_path(board, keys, axis))


def _expansion_chain(board: BoardSpec) -> Collection[EdgeKey]:
    """The edge keys grown from the nearest family base, one cut per axis."""
    fam, n, m = min(matching_tileable_families(board), key=lambda t: (t[1] + t[2], t[0].id))
    base = build_board(board.topology, *fam.base)
    grown, keys = base, _base_witness(base)
    try:
        if n:
            grown, keys = _lay_bands(grown, keys, ROWS, _chain_cut(base, 0, ROWS), n)
        if m:
            grown, keys = _lay_bands(grown, keys, COLS, _chain_cut(base, n, COLS), m)
    except ExpansionFailedError as exc:
        raise WitnessUnavailableError(f"the nearest family chain grows no witness for {board}") from exc
    if board.topology is Topology.TORUS and board.a < board.b:  # tori are swap-symmetric: swap rows and columns
        grown = build_board(Topology.TORUS, grown.b, grown.a)
        keys = [("v" if axis == "h" else "h", line, off) for axis, line, off in keys]
    if grown != board:
        raise InvariantError(f"chain from {fam.base} grew {grown}, not {board}")
    return keys


def _witness_keys(board: BoardSpec, store: WitnessStore | None) -> Collection[EdgeKey]:
    """witness()'s core past the cache lookup: the chain's edge keys, verified, and saved to
    `store` if one is given."""
    keys = _expansion_chain(board)
    if not _verify_keys(board, keys).fault_free:
        raise InvariantError(f"witness for {board} fails verification")
    if store is not None:
        store._save_text(board, _encode_keys(board, keys))
    return keys


def _witness_text(board: BoardSpec, store: WitnessStore | None) -> str:
    """encode(witness(board, store=store)) for a board classified tileable, encoded once.

    A cache hit is encoded from its tiling; a fresh witness is encoded from the chain's keys,
    and that text is what the store writes, with no placements built.
    """
    if store is not None:
        cached = store.load(board)
        if cached is not None:
            return encode(cached)
    text = _encode_keys(board, _witness_keys(board, None))
    if store is not None:
        store._save_text(board, text)
    return text


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
    return tiling_from_edges(board, _witness_keys(board, store))
