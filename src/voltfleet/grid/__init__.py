from .feeder_io import FeederFormatError, load_feeder, load_feeder_file
from .model import (
    Bus,
    Feeder,
    FeederTopologyError,
    Hub,
    Line,
    LoadPoint,
    build_feeder,
)
from .powerflow import (
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_TOLERANCE_PU,
    PowerFlowSolution,
    solve_power_flow,
    solve_power_flows,
)

__all__ = [
    "Bus",
    "Line",
    "LoadPoint",
    "Hub",
    "Feeder",
    "FeederTopologyError",
    "FeederFormatError",
    "build_feeder",
    "load_feeder",
    "load_feeder_file",
    "PowerFlowSolution",
    "solve_power_flow",
    "solve_power_flows",
    "DEFAULT_TOLERANCE_PU",
    "DEFAULT_MAX_ITERATIONS",
]
