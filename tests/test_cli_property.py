"""The CLI never shows a traceback, checked as a hypothesis property.

Config and program documents are drawn from the fields ``core.parse_config``
and ``memory.parse_program`` read, so most examples get past the JSON parser
and reach the validators; argument lists are drawn per command, plus free
token soups.  Every command must end in a documented exit code.  Reference:
MacIver et al., "Hypothesis: a new approach to property-based testing",
JOSS 2019.
"""

from __future__ import annotations

import contextlib
import io
import json

from hypothesis import example, given, settings, strategies as st

from fluxloop import SimConfig, serialize_config
from fluxloop.cli import EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_OK, EXIT_RUN_FAILED, main
from fluxloop.core import CELL_NAMES, CELL_OVERRIDES
from fluxloop.density import PRESETS

#: 141 (a closed stdout) is left to ``TestClosedStdout``; argparse refuses
#: bad arguments with ``SystemExit(2)``, the same code as a config error.
EXIT_CODES = {EXIT_OK, EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_RUN_FAILED}

#: Placeholders in a drawn argument list, replaced by per-example paths.
CONFIG, PROGRAM, OUT, MISSING = "{config}", "{program}", "{out}", "{missing}"

#: Any small JSON value.
junk = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4,
)


def mostly(valid: st.SearchStrategy, odd: st.SearchStrategy) -> st.SearchStrategy:
    """``valid`` seven times in eight, else ``odd``: most drawn documents then
    pass most checks, so the checks after them run too."""
    return st.sampled_from((valid,) * 7 + (odd,)).flatmap(lambda strategy: strategy)


ratio_texts = st.sampled_from(["0.76", "0.87", "0.9", "1", "1.13", "1.24", "1/3"])
odd_ratio_texts = st.sampled_from(["0.5", "1.5", "1e400", "1e5000", "1e-400", "0", "-1", "1/0", "nan", "inf", "abc"])
frequency_texts = st.sampled_from(["100GHz", "50GHz", "20GHz", "1GHz", "1THz", "10THz", "200 ghz"])
odd_frequency_texts = st.sampled_from(["1Hz", "0Hz", "-5GHz", "1e400GHz", "1e5000Hz", "1e-400Hz", "1e20Hz", "1 PHz", "x"])
ratios = mostly(ratio_texts | st.fractions(0, 2, max_denominator=1000).map(float), odd_ratio_texts | st.floats() | junk)
durations = mostly(
    st.sampled_from(["30ps", "2ps", "500fs", "0", "2.5ps", "1ns"]) | st.integers(0, 50_000),
    st.sampled_from(["-1ps", "1e400ps", "1e5000ps", "1e-400ns", "3 s", "abc"]) | st.integers(-10**6, -1) | st.floats() | junk,
)
frequencies = mostly(frequency_texts | st.integers(10**9, 2 * 10**12), odd_frequency_texts | st.floats() | junk)
counts = mostly(st.integers(1, 4), st.integers(-1, 0) | junk)  # num_addresses (at most 4), header_intervals
override_values = st.one_of(
    durations,
    st.sampled_from([[["0.8", 1.3], [1, 1], ["1.2", 0.7]], ["0.8", "1.2"], ["0.9", "1.1"]]),
    st.lists(st.lists(ratios, max_size=3), max_size=4),  # a bias_curve
    st.lists(ratios, max_size=3),  # an operating_range
)


def overrides(keys: tuple[str, ...]) -> st.SearchStrategy:
    return st.dictionaries(st.sampled_from(keys), override_values, max_size=3)


#: Up to two cells, each with keys it reads; the odd draw gives a cell any key.
ALL_KEYS = tuple(dict.fromkeys(key for keys in CELL_OVERRIDES.values() for key in keys))
cell_overrides = mostly(
    st.lists(st.sampled_from(CELL_NAMES), unique=True, max_size=2).flatmap(
        lambda names: st.fixed_dictionaries({name: overrides(CELL_OVERRIDES[name]) for name in names})
    ),
    st.dictionaries(st.sampled_from(CELL_NAMES), overrides(ALL_KEYS), max_size=2)
    | st.just({"bogus": {}})
    | junk,
)

#: One value strategy per field ``core.parse_config`` reads.
CONFIG_VALUES = {
    "frequency": frequencies,
    "num_addresses": counts,
    "bias": ratios,
    "header_intervals": counts,
    "phase_read": ratios,
    "phase_write": ratios,
    "phase_data": ratios,
    "loop_delay": durations,
    "retiming_guard": durations,
    "loop_jitter": mostly(st.lists(durations, max_size=3), junk),
    "cells": cell_overrides,
    "max_events": mostly(st.integers(1, 5000), st.integers(-1, 0) | junk),
    "search_ceiling": frequencies,
}


@st.composite
def config_docs(draw) -> dict:
    """A working 3-address 100 GHz config with up to three fields redrawn or
    dropped; ``max_events`` stays at most 5000 or is refused."""
    doc = {"frequency": "100GHz", "num_addresses": 3, "max_events": 5000}
    for key in draw(st.lists(st.sampled_from(sorted(CONFIG_VALUES)), unique=True, max_size=3)):
        if key in ("frequency", "num_addresses") and draw(st.integers(0, 9)) == 0:
            del doc[key]
        else:
            doc[key] = draw(CONFIG_VALUES[key])
    return doc


config_texts = mostly(config_docs().map(json.dumps), junk.map(json.dumps) | st.text(max_size=8))

addresses = mostly(st.integers(0, 3), st.integers(-1, 4) | junk)
bits = mostly(st.integers(0, 1), st.integers(-1, 2) | junk)
trips = mostly(
    st.fixed_dictionaries(
        {},
        optional={
            "write": mostly(st.none() | st.fixed_dictionaries({"addr": addresses, "bit": bits}), junk),
            "reads": mostly(st.lists(addresses, max_size=4), junk),
        },
    ),
    junk,
)
program_texts = mostly(
    st.fixed_dictionaries({"trips": mostly(st.lists(trips, max_size=3), junk)}).map(json.dumps),
    junk.map(json.dumps) | st.text(max_size=8),
)

ratio_args = mostly(ratio_texts | st.sampled_from(["0.02", "0.001"]), odd_ratio_texts | st.text(max_size=4))
frequency_args = mostly(frequency_texts, odd_frequency_texts | st.text(max_size=4))
frequency_lists = st.lists(frequency_args, min_size=1, max_size=3).map(",".join)
out_args = st.sampled_from([OUT + ".csv", OUT + ".vcd", OUT + ".txt", OUT, MISSING + ".csv"])
density_options = (
    ("--freqs", frequency_args),
    ("--layers", mostly(
        st.sampled_from(["1", "4", "100"]), st.sampled_from(["0", "-1", "1e3", "1000000000", "1" + "0" * 400, "x"])
    )),
    ("--format", mostly(st.sampled_from(["table", "csv"]), st.just("xml"))),
    ("--out", out_args),
)
#: (command, required options, optional options); ``None`` marks a switch
COMMANDS = (
    ("simulate", (("--config", CONFIG), ("--program", PROGRAM)), (("--trace", out_args), ("--bias", ratio_args))),
    ("sta", (("--config", CONFIG),), (("--bias-lo", ratio_args), ("--bias-hi", ratio_args), ("--find-max", None))),
    ("margins", (("--config", CONFIG), ("--freqs", frequency_lists)), (("--out", out_args),)),
    ("density", (("--all", None),), density_options),
    ("density", (("--preset", mostly(st.sampled_from(sorted(PRESETS)), st.just("bogus"))),), density_options),
    (
        "characterize",
        (("--config", CONFIG), ("--cell", mostly(st.sampled_from(CELL_NAMES), st.just("bogus")))),
        (("--lo", ratio_args), ("--hi", ratio_args), ("--step", ratio_args), ("--out", out_args)),
    ),
)


@st.composite
def command_lines(draw) -> list[str]:
    name, required, optional = draw(st.sampled_from(COMMANDS))
    chosen = draw(st.lists(st.sampled_from(optional), unique=True, max_size=len(optional)))
    argv = [name]
    for flag, value in (*required, *chosen):
        argv.append(flag)
        if value is not None:
            argv.append(value if isinstance(value, str) else draw(value))
    return argv


#: Token soups for the odd draw: mostly refused by argparse, sometimes a command.
TOKENS = sorted(
    {name for name, _, _ in COMMANDS}
    | {flag for _, required, optional in COMMANDS for flag, _ in (*required, *optional)}
    | {CONFIG, PROGRAM, OUT, "1", "100GHz", "merger"}
)
argument_lists = mostly(command_lines(), st.lists(st.sampled_from(TOKENS), max_size=8))


def test_the_drawn_config_fields_are_the_parsed_ones():
    with_cells = SimConfig(frequency_hz=10**9, num_addresses=1, cell_overrides={"merger": {}})
    assert set(CONFIG_VALUES) == set(json.loads(serialize_config(with_cells)))


WORKING_CONFIG = json.dumps({"frequency": "100GHz", "num_addresses": 3, "max_events": 5000})
WORKING_PROGRAM = json.dumps({"trips": [{"write": {"addr": 1, "bit": 1}, "reads": [1]}]})
#: An integer literal of 5,001 digits, past CPython's int <-> str limit.
BIG_INTEGER = "1" + "0" * 5000


def with_field(key: str, value: str) -> str:
    """The working config with one field set."""
    return json.dumps({**json.loads(WORKING_CONFIG), key: value})


# One example per defect found so far: a bias too large for a float, a
# density frequency too large for one, an unwritable output path, a search
# ceiling whose 1 GHz grid had 10^11 points, a frequency whose address
# interval rounds to 0 fs; numbers past CPython's 4,300-digit int <-> str
# limit, read or printed; a margins frequency and a density layer count too
# large for a float.
@settings(max_examples=200, deadline=None)
@given(argv=argument_lists, config=config_texts, program=program_texts)
@example(argv=["simulate", "--config", CONFIG, "--program", PROGRAM, "--bias", "1e400"],
         config=WORKING_CONFIG, program=WORKING_PROGRAM)
@example(argv=["density", "--all", "--freqs", "1e400GHz"], config=WORKING_CONFIG, program=WORKING_PROGRAM)
@example(argv=["simulate", "--config", CONFIG, "--program", PROGRAM, "--trace", MISSING + ".vcd"],
         config=WORKING_CONFIG, program=WORKING_PROGRAM)
@example(argv=["sta", "--config", CONFIG, "--find-max"],
         config=json.dumps({"frequency": "100GHz", "num_addresses": 3, "search_ceiling": "1e20Hz"}),
         program=WORKING_PROGRAM)
@example(argv=["margins", "--config", CONFIG, "--freqs", "3000THz,100GHz"],
         config=json.dumps({"frequency": "3000THz", "num_addresses": 3, "loop_delay": "1fs"}),
         program=WORKING_PROGRAM)
@example(argv=["sta", "--config", CONFIG], config=WORKING_CONFIG.replace(": 3,", f": {BIG_INTEGER},"),
         program=WORKING_PROGRAM)
@example(argv=["simulate", "--config", CONFIG, "--program", PROGRAM],
         config=WORKING_CONFIG, program=WORKING_PROGRAM.replace('"addr": 1', f'"addr": {BIG_INTEGER}'))
@example(argv=["sta", "--config", CONFIG], config=with_field("frequency", f"{BIG_INTEGER}Hz"), program=WORKING_PROGRAM)
@example(argv=["margins", "--config", CONFIG, "--freqs", f"{BIG_INTEGER}Hz"], config=WORKING_CONFIG,
         program=WORKING_PROGRAM)
@example(argv=["sta", "--config", CONFIG], config=with_field("loop_delay", "1e5000fs"), program=WORKING_PROGRAM)
@example(argv=["sta", "--config", CONFIG], config=with_field("bias", "1e5000"), program=WORKING_PROGRAM)
@example(argv=["simulate", "--config", CONFIG, "--program", PROGRAM], config=with_field("bias", "1e5000"),
         program=WORKING_PROGRAM)
@example(argv=["sta", "--config", CONFIG, "--bias-hi", "1e5000"], config=WORKING_CONFIG, program=WORKING_PROGRAM)
@example(argv=["sta", "--config", CONFIG], config=with_field("frequency", "1e5000Hz"), program=WORKING_PROGRAM)
@example(argv=["margins", "--config", CONFIG, "--freqs", "1e400GHz,20GHz"], config=WORKING_CONFIG,
         program=WORKING_PROGRAM)
@example(argv=["density", "--preset", "nbn-15nm", "--layers", "1" + "0" * 400], config=WORKING_CONFIG,
         program=WORKING_PROGRAM)
def test_the_cli_never_shows_a_traceback(tmp_path_factory, argv, config, program):
    directory = tmp_path_factory.mktemp("cli")
    paths = {
        CONFIG: directory / "config.json",
        PROGRAM: directory / "program.json",
        OUT: directory / "out",
        MISSING: directory / "missing" / "out",
    }
    paths[CONFIG].write_text(config)
    paths[PROGRAM].write_text(program)
    for placeholder, path in paths.items():
        argv = [arg.replace(placeholder, str(path)) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusing the arguments
            code = exc.code
    assert code in EXIT_CODES, (code, err.getvalue())
    assert "Traceback" not in out.getvalue() + err.getvalue()
