"""Fault-free domino tileability of rectangles, cylinders, tori, and Moebius strips.

Public names load on first use (PEP 562): `fault_atlas.find_fault_free`
imports `fault_atlas.search` when it is first read, so a process pays only
for the modules it touches.  The errors are bound at import, and so is
`classify`: the function shares its name with its submodule, and importing
that submodule binds the package attribute, which `__getattr__` would then
never see.
"""

import importlib

from .classify import classify
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

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_HOME = {name: module for module, names in (
    ("charts", "Chart build_chart chart_text"),
    ("classify", "Verdict base_boards classify"),
    ("counting", "FeasibilityReport ParitySystem build_parity_system counting_feasible min_required_tiles"),
    ("errors", "ExpansionFailedError FaultAtlasError InvalidDimensionError InvalidWitnessError "
               "InvariantError OracleRangeError ParitySpaceTooLargeError WitnessDecodeError "
               "WitnessUnavailableError"),
    ("expansion", "expand"),
    ("render", "ascii_render svg_render"),
    ("search", "SearchOutcome fault_free_exists_oracle find_fault_free"),
    ("tiling", "Tiling VerificationReport decode decode_for_board encode verify"),
    ("topology", "BoardSpec CrossingEdge FaultCurve Placement Topology build_board fault_curves placements"),
    ("witnesses", "WitnessStore default_store witness"),
) for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
