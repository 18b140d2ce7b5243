"""fluxloop: pulse-level simulation and analysis of a delay-line memory.

The package models a recirculating superconducting delay-line store at the
level of individual timestamped pulses: a deterministic event kernel
(:mod:`fluxloop.engine`) drives behavioral storage/merge cells
(:mod:`fluxloop.cells`) wired into the memory controller
(:mod:`fluxloop.memory`), with static timing and empirical bias-margin
analysis (:mod:`fluxloop.timing`) and storage-density estimates for the
transmission-line medium (:mod:`fluxloop.density`) alongside.
"""

import importlib

from .cells import (
    BiasDelayModel, BiasRangeError, CellKind, CellParams, TimingViolation, ViolationKind, default_cell_params,
)
from .core import (
    ConfigError, FluxloopError, InfeasibleFrequencyError, SimConfig, interval_duration, parse_config,
    parse_duration, parse_frequency, serialize_config, trip_duration,
)
from .engine import Connection, Netlist, Trace, run_until, schedule, trace_to_csv, trace_to_vcd, write_csv, write_vcd
from .memory import (
    MemoryProgram, MemoryResult, TripOp, build_controller, oracle, parse_program, pulse_spacing, required_loop_delay,
    run_program, scenario_address_sweep, scenario_overwrite, scenario_write_read, stimulus_for,
)
from .timing import (
    JitterWindow, MarginReport, StaReport, bias_margin, characterize_cell, jitter_tolerance, margin_sweep,
    max_frequency, sta,
)

__version__ = "0.1.0"

__all__ = [
    "BiasDelayModel",
    "BiasRangeError",
    "CellKind",
    "CellParams",
    "ConfigError",
    "Connection",
    "FluxloopError",
    "InfeasibleFrequencyError",
    "JitterWindow",
    "LineSpec",
    "MarginReport",
    "MemoryProgram",
    "MemoryResult",
    "Netlist",
    "PRESETS",
    "SimConfig",
    "StaReport",
    "Trace",
    "TimingViolation",
    "TripOp",
    "ViolationKind",
    "bias_margin",
    "build_controller",
    "characterize_cell",
    "default_cell_params",
    "density_mbit_per_cm2",
    "inductance_from_sheet",
    "interval_duration",
    "jitter_tolerance",
    "margin_sweep",
    "max_frequency",
    "oracle",
    "parse_config",
    "parse_duration",
    "parse_frequency",
    "parse_program",
    "pulse_spacing",
    "reproduce_published",
    "required_loop_delay",
    "resolve_preset",
    "run_program",
    "run_until",
    "scenario_address_sweep",
    "scenario_overwrite",
    "scenario_write_read",
    "schedule",
    "serialize_config",
    "speed_factor",
    "sta",
    "stimulus_for",
    "trace_to_csv",
    "trace_to_vcd",
    "trip_duration",
    "velocity_mps",
    "write_csv",
    "write_vcd",
]

#: What :mod:`fluxloop.density` gives this namespace.  Only the ``density``
#: command needs that module, so it loads at the first read of one of these.
_DENSITY_NAMES = frozenset({"LineSpec", "PRESETS", "density_mbit_per_cm2", "inductance_from_sheet",
                            "reproduce_published", "resolve_preset", "speed_factor", "velocity_mps"})


def __getattr__(name: str) -> object:
    if name == "density" or name in _DENSITY_NAMES:
        # not ``from . import density``: that form reads this attribute first, and so would recurse
        density = importlib.import_module(f"{__name__}.density")
        return density if name == "density" else getattr(density, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), "density", *_DENSITY_NAMES})
