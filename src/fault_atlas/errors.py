"""Exception types shared across the package."""


class FaultAtlasError(Exception):
    """Base class for all package errors."""


class InvalidDimensionError(FaultAtlasError):
    """Board dimensions must be integers >= 1."""


class InvalidWitnessError(FaultAtlasError):
    """A tiling references placements that do not belong to its board."""


class WitnessDecodeError(FaultAtlasError):
    """A witness document is malformed or inconsistent with its board."""


class OracleRangeError(FaultAtlasError):
    """Board area exceeds the exhaustive oracle ceiling."""


class ExpansionFailedError(FaultAtlasError):
    """No verifying cut path was found for a band insertion."""


class WitnessUnavailableError(FaultAtlasError):
    """No family chain grew a witness for a tileable board (not a negative verdict)."""


class InvariantError(FaultAtlasError):
    """An internal consistency check failed: a bug, not bad input."""


class ParitySpaceTooLargeError(FaultAtlasError):
    """Never raised: counting has no size guard since it became one pass.

    Kept and exported because callers written against the old guard still
    name it; the benchmark's counting check in perfbench/worker.py does.
    """
