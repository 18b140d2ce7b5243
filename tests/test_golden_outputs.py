"""Byte-identity gate: exported artifacts of fixed runs, and argparse's own
help and usage errors, pinned by sha256.

Traces, margin tables, STA reports and density tables must not change under
a refactor or a speed-up; a changed digest here is a behaviour change and
needs its own justification.  Each artifact is rendered from a fixed, seeded input, so the
digests hold on every platform.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import linecache
import random
from functools import lru_cache

import pytest

from fluxloop import (
    MemoryProgram,
    SimConfig,
    TripOp,
    build_controller,
    max_frequency,
    parse_config,
    run_program,
    sta,
    trace_to_csv,
    trace_to_vcd,
)
from fluxloop.cli import build_parser, main
from fluxloop.core import exact_ratio
from fluxloop.timing import margin_sweep, margins_to_csv, sta_to_text

GHZ = 10**9

GOLDEN_SHA256 = {
    "stream.csv": "7f7221c23e4e4e4a0e01895ea20c38267e4a42b8cc8b16fb7148db7b67609e24",
    "stream.vcd": "abf3ddc866d94b9198b3779d1652faaf0721eea03a7104ef0c943f8f3afafb5f",
    "off_nominal.csv": "d7e51d1a1f8e390af3be463b1a4f6198bfb442bae9924da26a9160072c05ae61",
    "out_of_range.csv": "d5a8341169a5495205032b28ed1595b939d30e386d00f1c572f1c6b8cf043415",
    "jitter.csv": "a022086e89222a28c4e27fba4479fef4de7b9d12a54cc02b14fd1ea18821d524",
    "jitter.vcd": "f7ecb25050aef927f8cb96376fdd9e95cea2ff639c01a18c11b1ac84db99d6d5",
    "overrides.csv": "91039f4e8de2515ec7e3146321c973f2d79bc61241fbacd124e389040ca05b76",
    "margins.csv": "b41556381c57f24597634aadca9d0b573ff2dac87e52c0b29cab3859a4a0f68e",
    "sta.txt": "b25c7160e67e902ae266484accfc4705eb13984ebacdd0566b704944304acc77",
    "sta_asymmetric.txt": "8c476617fefe2cf4582d0c7702a846231b116c1fe246a18df6bc3accbb989e4f",
}

#: ``fluxloop density`` stdout, by command line.
DENSITY_SHA256 = {
    "density --all": "ef2b6e6cfb794325ff0502bcc4a28781866809aa2d858a767bc50f238cbd3a39",
    "density --all --format csv": "5ab964a8c1c11594cf6c8c7f04416133f1f38d1033007477051bfe312e5b1966",
    "density --preset nbn-15nm --layers 100 --format csv": "548035ba818dea2c36975c42345e998a2f2d16afed4adc5ad67c7253b9ebf194",
    "density --all --freqs 10GHz,30GHz": "cbbfaf2f3c14446cf4b465b9558bb39ad1335c4a191138848c47ffd48c177042",
}


#: The generated kernel source a controller run takes, by cell overrides: the default cells' folded
#: kernel, and the wired kernel a zero fanout delay makes.  The frequency and address count change neither.
KERNEL_SHA256 = {
    "{}": "c4b52f15172ee863f18861fdbed58dbdde866cc40e2b56b60f1672a6daedd702",
    '{"fanout": {"prop_delay": 0}}': "7da2fd260e0e30c64e3b3700e97031dd8741be833ac841bb4c0876d51df15d02",
}

#: What argparse itself prints, by ``fluxloop`` command line (split at spaces): the exit code, and the
#: sha256 of stdout, a NUL and stderr, at 80 columns.  The same bytes on CPython 3.10 to 3.13.
ARGPARSE_SHA256 = {
    "": (2, "8d25c18e854cc4d69ddeb1b1a04f14369716b47c920e04adacdb59ff2074011f"),
    "--help": (0, "a69a210b221f5feb427574d080afd021c5174c38246f1c0cd696b30439b5955d"),
    "bogus": (2, "ab418ac84ade85aa384bc47b290adc81fc016c4bc547813f15674d81a8aba449"),
    "simulate --help": (0, "f782a99b2645311f9b438908542d1d084c696266d196b80cb904470b14f19551"),
    "sta --help": (0, "dc056ae83c3ad8d83fc59b0cb4d3d67c0234a5b849dfda649b48fee0c2a4caa8"),
    "margins --help": (0, "93d66c151466b72061aad1791a6d05ace3d360acfea1bf6889fc0bee9858b7a5"),
    "density --help": (0, "1c745408fb330b1991f648b5a07d55f2951d977f02be39693841ed4526b37823"),
    "characterize --help": (0, "09ceb944bafcb3c77a89e029c39475f427ff582ec8757971da708fbe31f6a8da"),
    "simulate": (2, "0d708f10d1303045f2f69a32011c5880216c5e081fbc32a1071802c92aa3be1a"),
    "characterize --config": (2, "18b1c0b7c796e8f0ad2c2fee3e2ef45c8a326b813cf2376192b33853b53a421b"),
    "sta --config c --bogus": (2, "cfa5e1ca0e5a84196c7e951f12d07d4a6772dbb1a22cd4034c01d251c06e6d66"),
    "margins --config c --freqs 1GHz extra": (2, "29f037b14877c3ae494d60ff70e2e23032d5bac1f98131ec3f4054190ab24c77"),
    "density --preset a --all": (2, "9b54884b0e53bf9495d44595f08438debc878c652e7c08891203a527ccaf8624"),
}


def _seeded_program(num_addresses: int, trips: int, seed: int) -> MemoryProgram:
    rng = random.Random(seed)
    ops = []
    for _ in range(trips):
        write = None
        if rng.random() < 0.75:
            write = (rng.randrange(num_addresses), rng.randint(0, 1))
        reads = tuple(sorted(rng.sample(range(num_addresses), rng.randint(0, 6))))
        ops.append(TripOp(write=write, reads=reads))
    return MemoryProgram(trips=tuple(ops))


@lru_cache(maxsize=None)
def _artifacts() -> dict[str, str]:
    cfg = SimConfig(frequency_hz=100 * GHZ, num_addresses=16)
    program = _seeded_program(16, 40, seed=20221)

    stream = run_program(program, cfg).trace
    off_nominal = run_program(program, cfg.with_bias(exact_ratio("0.80"))).trace
    out_of_range = run_program(program, cfg.with_bias(exact_ratio("1.30"))).trace
    jitter_rng = random.Random(7)
    jitter_cfg = cfg._replace(
        loop_jitter_fs=tuple(jitter_rng.randint(-4000, 4000) for _ in range(40))
    )
    jitter = run_program(program, jitter_cfg).trace

    overrides_cfg = parse_config(
        json.dumps(
            {
                "frequency": "100GHz",
                "num_addresses": 16,
                "bias": 0.9,
                "cells": {
                    "merger": {
                        "bias_curve": [[0.7, 1.5], [1.0, 1.0], [1.3, 0.6]],
                        "operating_range": [0.7, 1.3],
                    },
                    "read_dro2r": {"setup": "6ps"},
                },
            }
        )
    )
    overrides = run_program(program, overrides_cfg).trace

    small = SimConfig(frequency_hz=100 * GHZ, num_addresses=3)
    margins = margin_sweep(small, [75 * GHZ, 100 * GHZ])
    sta_text = sta_to_text(sta(small, "0.87", "1.13")) + sta_to_text(sta(small.with_frequency(150 * GHZ)))

    # write and recirculation paths differ in delay and in bias curve, so
    # these reports pin which source sets each merged-path extreme
    asymmetric = parse_config(
        json.dumps(
            {
                "frequency": "60GHz",
                "num_addresses": 5,
                "cells": {
                    "write_dro": {"prop_delay": "4ps"},
                    "recirc_dro2r": {"prop_delay": "2.5ps"},
                    "merger": {
                        "bias_curve": [[0.7, 1.5], [1.0, 1.0], [1.3, 0.6]],
                        "operating_range": [0.7, 1.3],
                    },
                    "fanout": {"prop_delay": 0},
                    "read_dro2r": {"setup": "6ps"},
                },
            }
        )
    )
    sta_asymmetric = (
        sta_to_text(sta(asymmetric, "0.9", "1.1"))
        + sta_to_text(sta(asymmetric.with_frequency(100 * GHZ), "0.8", "1.0"))
        + sta_to_text(sta(asymmetric._replace(loop_delay_fs=70_000), "0.95", "1.2"))
        + f"max feasible frequency: {max_frequency(asymmetric) / GHZ:g} GHz\n"
    )

    return {
        "stream.csv": trace_to_csv(stream),
        "stream.vcd": trace_to_vcd(stream),
        "off_nominal.csv": trace_to_csv(off_nominal),
        "out_of_range.csv": trace_to_csv(out_of_range),
        "jitter.csv": trace_to_csv(jitter),
        "jitter.vcd": trace_to_vcd(jitter),
        "overrides.csv": trace_to_csv(overrides),
        "margins.csv": margins_to_csv(margins),
        "sta.txt": sta_text,
        "sta_asymmetric.txt": sta_asymmetric,
    }


def test_fixtures_exercise_the_failure_paths():
    art = _artifacts()
    assert "HOLD" in art["off_nominal.csv"] or "SETUP" in art["off_nominal.csv"]
    assert art["out_of_range.csv"].count("ELECTRICAL") == 5
    assert "violation" in art["jitter.csv"]
    assert "violation" not in art["stream.csv"]
    assert art["sta_asymmetric.txt"].count("VIOLATED") == 3
    assert art["sta_asymmetric.txt"].endswith("max feasible frequency: 107 GHz\n")


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_artifact_is_byte_identical(name):
    digest = hashlib.sha256(_artifacts()[name].encode()).hexdigest()
    assert digest == GOLDEN_SHA256[name], f"{name} changed"


@pytest.mark.parametrize("overrides", sorted(KERNEL_SHA256))
def test_controller_kernel_source_is_byte_identical(overrides):
    for ghz, addresses in ((100, 3), (50, 3), (20, 8)):
        net = build_controller(SimConfig(frequency_hz=ghz * GHZ, num_addresses=addresses, cell_overrides=json.loads(overrides)))
        kernel, _ = net._wired_kernel if net.at_bias(exact_ratio(1)).zero_delay else net._folded_kernel
        source = "".join(linecache.getlines(kernel.__code__.co_filename))
        assert hashlib.sha256(source.encode()).hexdigest() == KERNEL_SHA256[overrides], f"{overrides} at {ghz} GHz changed"


@pytest.mark.parametrize("command", sorted(DENSITY_SHA256))
def test_density_output_is_byte_identical(command, capsys):
    assert main(command.split()) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == DENSITY_SHA256[command], f"{command} changed"


def _argparse_exit(parse, argv: list[str]) -> tuple[object, str, str]:
    """The exit code, stdout and stderr of ``parse(argv)``, which must exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), pytest.raises(SystemExit) as info:
        parse(argv)
    return info.value.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("command", ARGPARSE_SHA256)
def test_argparse_output_is_byte_identical(command, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal's width
    code, out, err = _argparse_exit(main, command.split())
    assert (code, hashlib.sha256(f"{out}\0{err}".encode()).hexdigest()) == ARGPARSE_SHA256[command], (out, err)
    # main builds argv[0]'s subparser alone: it prints what the parser with all five prints
    assert (code, out, err) == _argparse_exit(build_parser().parse_args, command.split())


@pytest.mark.parametrize("command", ["simulate", "sta", "margins", "density", "characterize"])
def test_a_one_command_parser_formats_as_the_full_one(command, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    one, full = build_parser(command), build_parser()
    assert one.format_usage() == full.format_usage()  # the usage an unrecognized argument prints

    def subparser(parser: argparse.ArgumentParser) -> argparse.ArgumentParser:
        (action,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        return action.choices[command]

    assert subparser(one).format_help() == subparser(full).format_help()
