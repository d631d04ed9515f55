"""Fault-free domino tileability of rectangles, cylinders, tori, and Moebius strips."""

from .charts import Chart, build_chart, chart_text
from .classify import Verdict, base_boards, classify
from .counting import (
    CrossingProfile,
    FeasibilityReport,
    ParitySystem,
    build_parity_system,
    check_profile,
    counting_feasible,
    min_required_tiles,
    profile_of,
)
from .errors import (
    ExpansionFailedError,
    FaultAtlasError,
    InvalidDimensionError,
    InvalidWitnessError,
    InvariantError,
    OracleRangeError,
    ParitySpaceTooLargeError,
    WitnessDecodeError,
    WitnessUnavailableError,
)
from .expansion import expand
from .render import ascii_render, svg_render
from .search import (
    SearchOutcome,
    count_tilings,
    fault_free_exists_oracle,
    find_fault_free,
    find_tiling,
)
from .tiling import Tiling, VerificationReport, decode, decode_for_board, encode, verify
from .topology import (
    BoardSpec,
    CrossingEdge,
    FaultCurve,
    Placement,
    Topology,
    build_board,
    cell_color,
    curve_of,
    fault_curves,
    placements,
)
from .witnesses import BaseCase, WitnessStore, base_cases, default_store, witness

__version__ = "0.1.0"

__all__ = [
    "BaseCase",
    "BoardSpec",
    "Chart",
    "CrossingEdge",
    "CrossingProfile",
    "ExpansionFailedError",
    "FaultAtlasError",
    "FaultCurve",
    "FeasibilityReport",
    "InvalidDimensionError",
    "InvalidWitnessError",
    "InvariantError",
    "OracleRangeError",
    "ParitySpaceTooLargeError",
    "ParitySystem",
    "Placement",
    "SearchOutcome",
    "Tiling",
    "Topology",
    "Verdict",
    "VerificationReport",
    "WitnessDecodeError",
    "WitnessStore",
    "WitnessUnavailableError",
    "ascii_render",
    "base_boards",
    "base_cases",
    "build_board",
    "build_chart",
    "build_parity_system",
    "cell_color",
    "chart_text",
    "check_profile",
    "classify",
    "count_tilings",
    "counting_feasible",
    "curve_of",
    "decode",
    "decode_for_board",
    "default_store",
    "encode",
    "expand",
    "fault_curves",
    "fault_free_exists_oracle",
    "find_fault_free",
    "find_tiling",
    "min_required_tiles",
    "placements",
    "profile_of",
    "svg_render",
    "verify",
    "witness",
]
