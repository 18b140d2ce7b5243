"""The package's record types: what importing defines, and how records behave."""

from __future__ import annotations

import contextlib
import copy
import functools
import importlib
import inspect
import io
import os
import pickle
import pkgutil
import re
import subprocess
import sys
import typing
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import fluxloop
from fluxloop import (
    BiasDelayModel,
    CellKind,
    CellParams,
    ConfigError,
    Connection,
    JitterWindow,
    LineSpec,
    MarginReport,
    MemoryProgram,
    MemoryResult,
    Netlist,
    SimConfig,
    Trace,
    TimingViolation,
    TripOp,
    ViolationKind,
    build_controller,
    run_until,
    sta,
)
from fluxloop.core import CELL_NAMES
from fluxloop.density import DensityReport, DensityRow, FactorRow
from fluxloop.engine import DuplicatePulseError, NetlistError, PreparedRun, UnknownLineError
from fluxloop.timing import ArrivalWindow, SlackRow

SRC = str(Path(fluxloop.__file__).resolve().parents[1])
README = Path(__file__).resolve().parents[1] / "README.md"


def test_importing_the_cli_loads_no_dataclass_machinery_and_runs_pinned_cells():
    # dataclasses imports inspect, ast, dis and tokenize; every record is a tuple or a slotted class.
    # graphlib loads at the first netlist check, not at import
    script = (
        "import sys, fluxloop.cli\n"
        "print(sorted(name for name in ('dataclasses', 'inspect', 'graphlib') if name in sys.modules))\n"
        "print(sorted({f'{v.__module__}.{v.__name__}' for m, mod in list(sys.modules.items())"
        " if m.split('.')[0] == 'fluxloop' for v in vars(mod).values()"
        " if isinstance(v, type) and '__dataclass_fields__' in vars(v)}))\n"
        "from fractions import Fraction\n"
        "from fluxloop import SimConfig, build_controller\n"
        "net = build_controller(SimConfig(frequency_hz=10**11, num_addresses=3))\n"
        "pinned = [net.at_bias(Fraction(r, 100)).cells for r in (50, 90, 100, 124)]\n"
        "print(sorted({type(cell).__name__ for cells in pinned for cell in cells.values()}),"
        " {cell.delay_model for cells in pinned for cell in cells.values()}, len(pinned[0]))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    child = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert child.returncode == 0, child.stderr
    assert child.stdout == "[]\n[]\n['CellParams'] {None} 5\n"


#: What ``fluxloop`` re-exports from ``fluxloop.density``.
DENSITY_NAMES = ("LineSpec", "PRESETS", "density_mbit_per_cm2", "inductance_from_sheet", "reproduce_published",
                 "resolve_preset", "speed_factor", "velocity_mps")


def test_importing_the_cli_defines_no_typing_record_and_loads_density_only_when_read():
    # typing.NamedTuple gives each record class its own __annotations__; a namedtuple subclass has none
    script = f"""
import sys, fluxloop, fluxloop.cli

def typed():
    return sorted({{f"{{v.__module__}}.{{v.__name__}}" for m, mod in list(sys.modules.items()) if m.split(".")[0] == "fluxloop"
                   for v in vars(mod).values() if isinstance(v, type) and issubclass(v, tuple) and vars(v).get("__annotations__")}})

print("fluxloop.density" in sys.modules, typed())
presets = fluxloop.PRESETS
print("fluxloop.density" in sys.modules, presets is fluxloop.density.PRESETS, typed())
print(all(getattr(fluxloop, name) is getattr(fluxloop.density, name) for name in {DENSITY_NAMES!r}))
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    child = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert child.returncode == 0, child.stderr
    assert child.stdout == "False []\nTrue True []\nTrue\n"


def test_the_package_namespace_still_gives_the_density_names():
    star: dict = {}
    exec("from fluxloop import *", star)
    assert set(fluxloop.__all__) <= star.keys() and set(fluxloop.__all__) <= set(dir(fluxloop))
    assert {name: star[name] for name in DENSITY_NAMES} == {name: getattr(fluxloop.density, name) for name in DENSITY_NAMES}
    assert all(getattr(fluxloop, name) is star[name] for name in fluxloop.__all__)
    assert "density" in dir(fluxloop)
    with pytest.raises(AttributeError, match="^module 'fluxloop' has no attribute 'no_such_name'$"):
        fluxloop.no_such_name


def test_a_clean_interpreter_running_commands_loads_neither_typing_nor_pathlib(tmp_path):
    # under -S no site hook preloads them, so whatever loads them is the package's own import or command
    config, program = tmp_path / "config.json", tmp_path / "program.json"
    config.write_text('{"frequency": "100GHz", "num_addresses": 3}')
    program.write_text('{"trips": [{"write": {"addr": 1, "bit": 1}, "reads": [1]}]}')
    script = (
        "import contextlib, io, sys, fluxloop, fluxloop.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [fluxloop.cli.main(['simulate', '--config', sys.argv[1], '--program', sys.argv[2]]),"
        " fluxloop.cli.main(['density', '--all'])]\n"
        "print(codes, [name for name in ('typing', 'pathlib') if name in sys.modules])"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    child = subprocess.run([sys.executable, "-S", "-c", script, str(config), str(program)],
                           capture_output=True, text=True, env=env, timeout=60)
    assert child.returncode == 0, child.stderr
    assert child.stdout == "[0, 0] []\n"


def _defined_functions(namespace: dict, module: str):
    """The functions and methods defined in ``module``, found from its namespace: through
    classes, class and static methods, properties, ``cached_property`` and ``lru_cache``."""
    for value in namespace.values():
        value = getattr(value, "__func__", value)  # a classmethod or staticmethod
        if isinstance(value, functools.cached_property):
            value = value.func
        if isinstance(value, property):
            yield from filter(None, (value.fget, value.fset, value.fdel))
            continue
        value = getattr(value, "__wrapped__", value)  # an lru_cache
        if getattr(value, "__module__", None) != module:
            continue
        if inspect.isfunction(value):
            yield value
        elif isinstance(value, type):
            yield from _defined_functions(vars(value), module)


def test_every_annotation_in_the_package_resolves():
    # annotations are never evaluated at import, so a name dropped from the imports would pass unseen
    modules = [fluxloop, *(importlib.import_module(f"fluxloop.{info.name}")
                           for info in pkgutil.iter_modules(fluxloop.__path__) if info.name != "__main__")]
    for module in modules:
        functions = set(_defined_functions(vars(module), module.__name__))
        assert functions, module.__name__
        for function in functions:
            typing.get_type_hints(function)  # raises NameError on a name the module does not define


CFG = SimConfig(frequency_hz=100 * 10**9, num_addresses=3)
NET = build_controller(CFG)
#: Every cell at a constant delay: no operating range refuses a bias window first.
CONSTANT_DELAYS = CFG._replace(cell_overrides={name: {"prop_delay": 0} for name in CELL_NAMES})
KNOTS = ((Fraction(3, 4), 20), (Fraction(5, 4), 10))
TRACE_FIELDS = {"keys": (), "lines": ("read_data",), "violations": (), "observed": ("read_data",), "t_end_fs": 10, "bias": Fraction(1)}
SPEC = {"name": "x", "linewidth_nm": 15, "spacing_nm": 120, "capacitance_ff_per_um": 0.04, "inductance_ph_per_um": 5467.0}

#: Every record type, as (type, the fields given by keyword, the defaults of the others).
RECORDS = [
    (SimConfig, {"frequency_hz": 10**11, "num_addresses": 3},
     {"bias": Fraction(1), "header_intervals": 1, "phase_read": Fraction(1, 5), "phase_write": Fraction(1, 2),
      "phase_data": Fraction(1, 2), "loop_delay_fs": None, "retiming_guard_fs": 2000, "loop_jitter_fs": (),
      "cell_overrides": {}, "max_events": 10_000_000, "search_ceiling_hz": 10**12}),
    (CellParams, {"kind": CellKind.DRO2R, "prop_delay_fs": 15, "delay_model": BiasDelayModel(KNOTS, Fraction(4, 5), Fraction(6, 5))},
     {"setup_fs": 0, "hold_fs": 0, "min_separation_fs": 0}),
    (TimingViolation, {"cell": "merger", "kind": ViolationKind.HOLD, "time_fs": 5, "detail": "d"}, {}),
    (BiasDelayModel, {"points": KNOTS, "range_lo": Fraction(4, 5), "range_hi": Fraction(6, 5)}, {}),
    (Connection, {"src": "a", "dst": "b"}, {"delay_fs": 0, "offset_schedule": ()}),
    (Netlist, {"cells": dict(NET.cells), "connections": NET.connections, "external_inputs": NET.external_inputs,
               "observed": NET.observed}, {}),
    (Trace, TRACE_FIELDS, {}),
    (PreparedRun, {"netlist": NET}, {"keys": ()}),
    (TripOp, {}, {"write": None, "reads": ()}),
    (MemoryProgram, {"trips": (TripOp(write=(0, 1)),)}, {}),
    (MemoryResult, {"reads": {(0, 1): 1}, "trace": Trace(**TRACE_FIELDS), "passed": True}, {}),
    (JitterWindow, {"lo_fs": -4, "hi_fs": 2, "detect_below": (-9, -5), "detect_above": (3, 7)}, {}),
    (SlackRow, {"constraint": "read_setup", "cell": "read_dro2r", "slack_fs": 0}, {}),
    (ArrivalWindow, {"node": "merger_in0", "earliest_fs": 1, "latest_fs": 2}, {}),
    (MarginReport, {"frequency_hz": 10**11, "lower_pct": 13, "upper_pct": 13, "lower_limiter": "HOLD",
                    "upper_limiter": "SETUP"}, {}),
    (LineSpec, SPEC, {"layers": 1, "speed_factor_override": None}),
    (DensityRow, {"preset": "x", "frequency_ghz": 20, "layers": 4, "computed": 0.5, "published": None,
                  "within_tolerance": None}, {}),
    (FactorRow, {"preset": "x", "computed": 0.007, "published": 0.007, "within_tolerance": True}, {}),
    (DensityReport, {"rows": (), "factors": ()}, {}),
]
#: Records holding a mapping, which hash no more than they did as dataclasses.
UNHASHABLE = (SimConfig, Netlist, PreparedRun, MemoryResult)


@pytest.mark.parametrize("record, given, defaults", RECORDS, ids=[record.__name__ for record, _, _ in RECORDS])
def test_record_behaviour(record, given, defaults):
    made = record(**given)
    assert {name: getattr(made, name) for name in record._fields} == {**given, **defaults}
    with pytest.raises(AttributeError):
        setattr(made, record._fields[0], next(iter(given.values()), None))
    again = record(**given)
    assert made == again and made is not again
    if record in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(made)
    else:
        assert hash(made) == hash(again)
    fields = ", ".join(f"{name}={getattr(made, name)!r}" for name in record._fields)
    assert repr(made) == f"{record.__name__}({fields})"
    # the one difference from a dataclass: a record is the tuple of its fields
    assert made == tuple(made) and len(made) == len(record._fields)
    assert list(made._asdict()) == list(record._fields)
    if record is Connection:  # the one record whose defaults are the namedtuple's, not its constructor's
        assert record._field_defaults == defaults
    for copied in (pickle.loads(pickle.dumps(made)), copy.deepcopy(made)):
        assert type(copied) is record and copied == made


#: Each check of a validating record, as (construction, error type, exact message).
REFUSALS = [
    # a bias is a plain ratio, checked where it enters: a config, the pins of a run, an sta window
    (lambda: SimConfig(10**11, 3, bias=0), ConfigError, "bias: must be positive"),
    (lambda: NET.at_bias(Fraction(0)), ValueError, "bias ratio must be positive"),
    (lambda: run_until(PreparedRun(NET), 10, -1), ValueError, "bias ratio must be positive"),
    (lambda: sta(CONSTANT_DELAYS, 0, 1), ValueError, "bias ratio must be positive"),
    # a library config reads its bias and phases as the config document does: a float is its shortest repr
    (lambda: SimConfig(10**11, 3, bias=True), ConfigError, "bias: expected a ratio, got a boolean"),
    (lambda: SimConfig(10**11, 3, bias="0.9x"), ConfigError, "bias: invalid ratio '0.9x'"),
    (lambda: SimConfig(10**11, 3, bias=float("nan")), ConfigError, "bias: invalid ratio nan"),
    (lambda: SimConfig(10**11, 3, phase_read="1e5000"), ConfigError, "phase_read: number has more than 1000 digits"),
    (lambda: SimConfig(10**11, 3, phase_write=[1, 2]), ConfigError, "phase_write: invalid ratio [1, 2]"),
    (lambda: CFG._replace(phase_data=False), ConfigError, "phase_data: expected a ratio, got a boolean"),
    (lambda: BiasDelayModel(KNOTS[:1], Fraction(4, 5), Fraction(6, 5)), ValueError, "delay model needs at least two knots"),
    (lambda: BiasDelayModel(KNOTS[::-1], Fraction(4, 5), Fraction(6, 5)), ValueError,
     "knot ratios must be strictly increasing"),
    (lambda: BiasDelayModel(((Fraction(3, 4), 10), (Fraction(5, 4), 20)), Fraction(4, 5), Fraction(6, 5)), ValueError,
     "knot delays must be strictly decreasing"),
    (lambda: BiasDelayModel(KNOTS, Fraction(11, 10), Fraction(6, 5)), ValueError,
     "operating range must bracket the nominal ratio 1.0"),
    (lambda: BiasDelayModel(KNOTS, Fraction(1, 2), Fraction(6, 5)), ValueError, "knots must span the operating range"),
    (lambda: Netlist({"a.b": NET.cells["merger"]}, (), frozenset(), ()), NetlistError,
     "cell name 'a.b' must not contain '.'"),
    (lambda: TripOp(write=(-1, 1)), ConfigError, "write.addr: address must be non-negative"),
    (lambda: TripOp(write=(0, 2)), ConfigError, "write.bit: bit must be 0 or 1"),
    (lambda: TripOp(reads=(0, -1)), ConfigError, "reads[1]: addresses must be non-negative"),
    (lambda: TripOp(reads=(2, 0, 2)), ConfigError, "reads[2]: duplicate read address within a trip"),
    (lambda: LineSpec(**{**SPEC, "spacing_nm": 0}), ValueError, "linewidth and spacing must be positive"),
    (lambda: LineSpec(**{**SPEC, "capacitance_ff_per_um": -1}), ValueError, "capacitance and inductance must be positive"),
    (lambda: LineSpec(**SPEC, layers=0), ValueError, "layers must be at least 1"),
    # pinned, a negative delay would emit before its clock
    (lambda: CellParams(CellKind.DRO2R, prop_delay_fs=-1), ValueError, "propagation delay must be non-negative"),
    # a merger with a negative separation would never record a collision
    (lambda: CellParams(CellKind.MERGER, 1500, min_separation_fs=-5), ValueError,
     "minimum separation must be non-negative"),
    # _make, and _replace through it, build through the checks of the constructor
    (lambda: CFG._replace(bias=Fraction(-1)), ConfigError, "bias: must be positive"),
    (lambda: BiasDelayModel._make((KNOTS[:1], Fraction(4, 5), Fraction(6, 5))), ValueError,
     "delay model needs at least two knots"),
    (lambda: BiasDelayModel(KNOTS, Fraction(4, 5), Fraction(6, 5))._replace(range_lo=Fraction(1, 2)), ValueError,
     "knots must span the operating range"),
    (lambda: Netlist._make(({"a.b": NET.cells["merger"]}, (), frozenset(), ())), NetlistError,
     "cell name 'a.b' must not contain '.'"),
    (lambda: NET._replace(cells={"a.b": NET.cells["merger"]}), NetlistError, "cell name 'a.b' must not contain '.'"),
    # 14 lines, of which not_read_address has rank 3 and read_data, no input, rank 7
    (lambda: PreparedRun(NET, [5 * 14 + 3, 3, 5 * 14 + 3]), DuplicatePulseError, "duplicate pulse on 'not_read_address' at 5 fs"),
    (lambda: PreparedRun(NET)._replace(keys=(3, 3)), DuplicatePulseError, "duplicate pulse on 'not_read_address' at 0 fs"),
    (lambda: PreparedRun(NET, [3, -5 * 14 + 3]), ValueError, "pulse time must be non-negative, got -5 fs on 'not_read_address'"),
    (lambda: PreparedRun(NET)._replace(keys=(3, 14 + 7)), UnknownLineError, "line 'read_data' is not a declared external input"),
    (lambda: TripOp._make(((0, 1), (3, 3))), ConfigError, "reads[1]: duplicate read address within a trip"),
    (lambda: TripOp()._replace(write=(0, 5)), ConfigError, "write.bit: bit must be 0 or 1"),
    (lambda: LineSpec._make(tuple(SPEC.values()) + (0, None)), ValueError, "layers must be at least 1"),
    (lambda: LineSpec(**SPEC)._replace(linewidth_nm=-1), ValueError, "linewidth and spacing must be positive"),
    (lambda: SimConfig._make((0, 3)), ConfigError, "frequency: must be positive"),
    (lambda: CFG._replace(num_addresses=0), ConfigError, "num_addresses: must be at least 1"),
    (lambda: CFG._replace(cell_overrides={"nope": {}}), ConfigError,
     "cells.nope: unknown cell (valid: write_dro, recirc_dro2r, merger, fanout, read_dro2r)"),
    (lambda: CellParams._make((CellKind.DRO, -1)), ValueError, "propagation delay must be non-negative"),
    (lambda: NET.cells["merger"]._replace(hold_fs=-1), ValueError, "setup and hold times must be non-negative"),
    (lambda: NET.cells["merger"]._replace(prop_delay_fs=1), ValueError,
     "nominal delay 1 fs disagrees with the delay model at bias 1.0 (1500 fs)"),
]


def _refusal_ids(rows: list) -> list[str]:
    """Each row's message, a repeat numbered by its occurrence."""
    seen: Counter = Counter()
    ids = []
    for _, _, message in rows:
        seen[message] += 1
        ids.append(message if seen[message] == 1 else f"{message} #{seen[message]}")
    return ids


@pytest.mark.parametrize("make, error, message", REFUSALS, ids=_refusal_ids(REFUSALS))
def test_validating_records_keep_their_error_text(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert str(info.value) == message


def test_readme_library_snippet_runs_and_prints_what_it_shows():
    (snippet,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(snippet, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    assert printed, "the snippet prints nothing"
    for line in printed:  # each printed line appears in the snippet as a comment
        assert f"# {line}\n" in snippet
