"""End-to-end command-line behavior, exercised in-process via main()."""

from __future__ import annotations

import io
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import fluxloop
from fluxloop import (
    FluxloopError, cli, default_cell_params, parse_config, run_program, scenario_address_sweep, sta, trace_to_csv,
)
from fluxloop.cli import (
    EXIT_BROKEN_PIPE, EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_OK, EXIT_RUN_FAILED, MAX_SWEEP_POINTS, main,
)
from fluxloop.core import CELL_NAMES, CELL_OVERRIDES, format_ratio
from fluxloop.density import PRESETS
from fluxloop.engine import EXPORT_CHUNK
from fluxloop.memory import MemoryProgram, TripOp, parse_program
from fluxloop.timing import margin_sweep, margins_to_csv, sta_to_text

WRITE_READ = [
    {"write": {"addr": 1, "bit": 1}, "reads": [1]},
    {"reads": [1]},
    {"reads": [1]},
]


def _child_env() -> dict[str, str]:
    """The environment in which a ``python -m fluxloop`` child imports this checkout."""
    src = str(Path(fluxloop.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


class TestSimulate:
    def test_pass_run(self, write_config, write_program, capsys):
        code = main(["simulate", "--config", write_config(), "--program", write_program(WRITE_READ)])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert out == (
            "frequency 100 GHz, 3 addresses, bias 1.0\n"
            "trip 0: addr 1 -> 1\n"
            "trip 1: addr 1 -> 1\n"
            "trip 2: addr 1 -> 1\n"
            "result: PASS\n"
        )

    def test_bias_override_reports_violations(self, write_config, write_program, capsys):
        code = main(
            ["simulate", "--config", write_config(), "--program", write_program(WRITE_READ), "--bias", "0.5"]
        )
        out = capsys.readouterr().out
        assert code == EXIT_RUN_FAILED
        assert "bias 0.5" in out
        assert "violation: ELECTRICAL write_dro at 0 fs: bias 0.5 outside operating range [0.76, 1.24]" in out
        assert out.endswith("result: FAIL\n")

    def test_wrong_reads_are_annotated(self, write_config, write_program, capsys):
        # a loop one interval short aliases every bit into the previous slot
        config = write_config(loop_delay=20000)
        code = main(["simulate", "--config", config, "--program", write_program(WRITE_READ)])
        out = capsys.readouterr().out
        assert code == EXIT_RUN_FAILED
        assert "trip 1: addr 1 -> 0  (expected 1)" in out
        assert out.endswith("result: FAIL\n")

    def test_trace_export_csv(self, write_config, write_program, tmp_path, capsys):
        trace = tmp_path / "run.csv"
        code = main(
            ["simulate", "--config", write_config(), "--program", write_program(WRITE_READ), "--trace", str(trace)]
        )
        capsys.readouterr()
        assert code == EXIT_OK
        lines = trace.read_text().splitlines()
        assert lines[0] == "time_fs,line,kind,detail"
        assert "30000,loop_data_in,pulse," in lines
        assert "33000,read_data,pulse," in lines

    def test_trace_export_vcd(self, write_config, write_program, tmp_path, capsys):
        trace = tmp_path / "run.vcd"
        code = main(
            ["simulate", "--config", write_config(), "--program", write_program(WRITE_READ), "--trace", str(trace)]
        )
        capsys.readouterr()
        assert code == EXIT_OK
        text = trace.read_text()
        assert text.startswith("$timescale 1fs $end\n")
        assert "$var wire 1" in text and "read_data" in text

    def test_unsupported_trace_format(self, write_config, write_program, tmp_path, capsys):
        code = main(
            [
                "simulate",
                "--config",
                write_config(),
                "--program",
                write_program(WRITE_READ),
                "--trace",
                str(tmp_path / "run.txt"),
            ]
        )
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert "unsupported trace format" in captured.err
        assert captured.out == ""

    def test_missing_config_file(self, write_program, capsys):
        code = main(["simulate", "--config", "/nonexistent.json", "--program", write_program(WRITE_READ)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("error: config: cannot read /nonexistent.json")

    @pytest.mark.parametrize("document, content, error", [
        ("config", b'\xff\xfe{"frequency": 1}',
         "error: config: cannot read {path}: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"),
        ("config", b"[" * 200_000, "error: <document>: invalid JSON: maximum recursion depth exceeded"),
        ("program", b'{"trips": [\xff]}',
         "error: program: cannot read {path}: 'utf-8' codec can't decode byte 0xff in position 11: invalid start byte\n"),
        ("program", b"[" * 200_000, "error: <program>: invalid JSON: maximum recursion depth exceeded"),
    ], ids=["undecodable-config", "over-deep-config", "undecodable-program", "over-deep-program"])
    def test_an_undecodable_or_over_deep_document_is_refused(self, tmp_path, write_config, write_program, capsys,
                                                             document, content, error):
        path = tmp_path / "document.json"
        path.write_bytes(content)
        commands = ([["sta", "--config", str(path)], ["simulate", "--config", str(path), "--program", write_program([])]]
                    if document == "config" else [["simulate", "--config", write_config(), "--program", str(path)]])
        for args in commands:
            code = main(args)
            captured = capsys.readouterr()
            assert code == EXIT_CONFIG
            assert captured.err.startswith(error.format(path=path)) and "Traceback" not in captured.err
            assert captured.out == ""

    @pytest.mark.parametrize("document", ["config", "program"])
    def test_a_document_past_the_size_bound_is_refused(self, tmp_path, monkeypatch, capsys, document):
        # the document is padded past one chunk read; the bound is its size, then one byte less
        config, program = tmp_path / "config.json", tmp_path / "program.json"
        config.write_text('{"frequency": "100GHz", "num_addresses": 3}' + " " * 150_000 * (document == "config"))
        program.write_text(json.dumps({"trips": WRITE_READ}) + " " * 150_000 * (document == "program"))
        path = config if document == "config" else program
        args = ["simulate", "--config", str(config), "--program", str(program)]
        monkeypatch.setattr(cli, "MAX_DOCUMENT_BYTES", path.stat().st_size)
        assert main(args) == EXIT_OK
        capsys.readouterr()
        monkeypatch.setattr(cli, "MAX_DOCUMENT_BYTES", path.stat().st_size - 1)
        assert main(args) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err == f"error: {document}: {path} is larger than {path.stat().st_size - 1} bytes\n"
        assert captured.out == ""

    def test_invalid_config_field(self, tmp_path, write_program, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"frequency": "100GHz"}))
        code = main(["simulate", "--config", str(config), "--program", write_program(WRITE_READ)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "num_addresses: required field is missing" in err

    def test_infeasible_frequency(self, write_config, write_program, capsys):
        code = main(
            ["simulate", "--config", write_config(frequency="1THz"), "--program", write_program(WRITE_READ)]
        )
        err = capsys.readouterr().err
        assert code == EXIT_INFEASIBLE
        assert "does not fit" in err

    def test_an_interval_below_1_fs_is_infeasible_not_a_duplicate_pulse(self, write_config, write_program, capsys):
        config = write_config(frequency="3000THz", loop_delay="1fs")
        message = "error: frequency 3000000000000000 Hz gives an address interval of 0 fs, below the 1 fs time resolution\n"
        for argv in (["simulate", "--config", config, "--program", write_program(WRITE_READ)], ["sta", "--config", config]):
            code = main(argv)
            captured = capsys.readouterr()
            assert (code, captured.out, captured.err) == (EXIT_INFEASIBLE, "", message)

    @pytest.mark.parametrize(
        "trips, field",
        [
            ([{"write": {"addr": "1", "bit": 1}}], "trips[0].write.addr"),
            ([{"reads": [0]}, {"reads": [2, 1.0]}], "trips[1].reads[1]"),
            ([{"write": {"addr": 1, "bit": True}}], "trips[0].write.bit"),
        ],
    )
    def test_program_fields_must_be_integers(self, write_config, write_program, capsys, trips, field):
        code = main(["simulate", "--config", write_config(), "--program", write_program(trips)])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.err.startswith(f"error: {field}: expected an integer")
        assert "Traceback" not in captured.err and captured.out == ""

    @pytest.mark.parametrize(
        "trips, message",
        [
            ([{"write": {"addr": 1, "bit": 2}}], "trips[0].write.bit: bit must be 0 or 1"),
            ([{"reads": [0]}, {"reads": [2, -1]}], "trips[1].reads[1]: addresses must be non-negative"),
            ([{"reads": [0, 2, 0]}], "trips[0].reads[2]: duplicate read address within a trip"),
        ],
    )
    def test_program_errors_name_the_trip(self, write_config, write_program, capsys, trips, message):
        code = main(["simulate", "--config", write_config(), "--program", write_program(trips)])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.err == f"error: {message}\n" and captured.out == ""

    @pytest.mark.parametrize("max_events", [5, 6])
    def test_event_bound(self, write_config, write_program, capsys, max_events):
        # the stimulus alone (7 pulses) exceeds the bound, so nothing is simulated
        program = write_program(WRITE_READ[:1])
        code = main(["simulate", "--config", write_config(max_events=max_events), "--program", program])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.err == f"error: max_events: stimulus of 7 pulses exceeds the bound of {max_events} events\n"
        assert captured.out == ""
        assert main(["simulate", "--config", write_config(max_events=7), "--program", program]) == EXIT_OK

    def test_other_refused_input(self, write_config, write_program, capsys):
        # jitter that cancels the loop delay derived at 100 GHz is refused by name, before any run:
        # the frequency is at fault
        config = write_config(loop_jitter=["-30ps"])
        code = main(["simulate", "--config", config, "--program", write_program(WRITE_READ)])
        captured = capsys.readouterr()
        assert code == EXIT_INFEASIBLE
        assert captured.err == (
            "error: loop_jitter[0]: at 100000000000 Hz it makes trip 0's loop delay 0 fs; it must stay positive\n"
        )

    @pytest.mark.parametrize("value", ["abc", "0", "1/0"])
    def test_malformed_bias_option(self, write_config, write_program, capsys, value):
        program = write_program(WRITE_READ)
        code = main(["simulate", "--config", write_config(), "--program", program, "--bias", value])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err == f"error: --bias: expected a positive ratio, got {value!r}\n"

    @pytest.mark.parametrize("via_config", [False, True])
    def test_a_bias_beyond_a_float_fails_electrically(self, write_config, write_program, capsys, via_config):
        config, bias = (write_config(bias="1e400"), []) if via_config else (write_config(), ["--bias", "1e400"])
        code = main(["simulate", "--config", config, "--program", write_program(WRITE_READ), *bias])
        captured = capsys.readouterr()
        assert code == EXIT_RUN_FAILED
        assert (
            f"violation: ELECTRICAL write_dro at 0 fs: bias {10**400}/1 outside operating range [0.76, 1.24]\n"
            in captured.out
        )
        assert "Traceback" not in captured.out + captured.err

    def test_deterministic_trace_bytes(self, write_config, write_program, tmp_path, capsys):
        config, program = write_config(), write_program(WRITE_READ)
        paths = [tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "a.vcd", tmp_path / "b.vcd"]
        for p in paths:
            assert main(["simulate", "--config", config, "--program", program, "--trace", str(p)]) == EXIT_OK
        capsys.readouterr()
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert paths[2].read_bytes() == paths[3].read_bytes()


#: Reads on every address of a 3-address memory, with a rewrite of a 1.
ROUTES_PROGRAM = [
    {"write": {"addr": 1, "bit": 1}, "reads": [0, 1]},
    {"write": {"addr": 1, "bit": 1}, "reads": [1, 2]},
    {"write": {"addr": 2, "bit": 1}, "reads": [0, 1, 2]},
]


@pytest.mark.parametrize("extra", [
    {},
    {"cells": {"fanout": {"prop_delay": "0fs"}}},
    {"loop_jitter": ["300fs", "-300fs", "500fs"]},
], ids=["folded", "wired", "jittered"])
def test_folded_wired_and_jittered_routes_read_what_the_oracle_reads(write_config, write_program, capsys, extra):
    # the default controller's run takes the folded routes, a zero fanout delay the routes as
    # wired, and loop jitter a kernel with the loop tap's offset schedule
    program = write_program(ROUTES_PROGRAM)
    assert main(["simulate", "--config", write_config(**extra), "--program", program]) == EXIT_OK
    report = capsys.readouterr().out
    expected = fluxloop.oracle(parse_program(Path(program).read_text()), 3)
    reads = [f"trip {t}: addr {a} -> {b}" for (t, a), b in sorted(expected.items())]
    assert report.splitlines()[1:] == reads + ["result: PASS"], report


class TestSta:
    def test_nominal(self, write_config, capsys):
        code = main(["sta", "--config", write_config()])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "loop delay 30000 fs" in out
        assert out.endswith("timing met\n")

    def test_violated_window(self, write_config, capsys):
        code = main(["sta", "--config", write_config(), "--bias-lo", "0.86", "--bias-hi", "1.14"])
        out = capsys.readouterr().out
        assert code == EXIT_RUN_FAILED
        assert "timing VIOLATED (read_hold)" in out

    def test_a_misplaced_underscore_in_a_duration_is_refused(self, write_config, capsys):
        code = main(["sta", "--config", write_config(loop_delay="1__0fs")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == "error: loop_delay: cannot parse duration '1__0fs'\n"

    def test_malformed_window_edge(self, write_config, capsys):
        code = main(["sta", "--config", write_config(), "--bias-lo", "low"])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err == "error: --bias-lo: expected a positive ratio, got 'low'\n"

    @pytest.mark.parametrize(
        "edges, message",
        [
            (["--bias-lo", "1.1"], "--bias-lo: window low edge 1.1 exceeds its high edge 1.0"),
            (["--bias-hi", "0.9"], "--bias-hi: window low edge 1.0 exceeds its high edge 0.9"),
            (
                ["--bias-lo", "1.1", "--bias-hi", "1.05", "--find-max"],
                "--bias-lo: window low edge 1.1 exceeds its high edge 1.05",
            ),
        ],
    )
    def test_window_edges_out_of_order(self, write_config, capsys, edges, message):
        code = main(["sta", "--config", write_config(), *edges])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.err == f"error: {message} (an edge not given is the config bias)\n"
        assert captured.out == ""

    def test_window_outside_electrical_range(self, write_config, capsys):
        code = main(["sta", "--config", write_config(), "--bias-lo", "0.7", "--bias-hi", "1.3"])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "exceeds" in err

    @pytest.mark.parametrize(
        "bias, args, window",
        [
            (None, ["--bias-hi", "1e400"], f"[1.0, {10**400}/1]"),
            ("1e400", [], f"[{10**400}/1, {10**400}/1]"),
            ("1e400", ["--find-max"], f"[{10**400}/1, {10**400}/1]"),
        ],
    )
    def test_a_window_beyond_a_float_is_refused(self, write_config, capsys, bias, args, window):
        config = write_config(**({"bias": bias} if bias else {}))
        code = main(["sta", "--config", config, *args])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.err == f"error: bias window {window} exceeds write_dro operating range [0.76, 1.24]\n"
        assert captured.out == ""

    def test_find_max_under_a_ceiling_below_the_scan_step(self, write_config, capsys):
        code = main(["sta", "--config", write_config(search_ceiling="1Hz"), "--find-max"])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.err == "error: search_ceiling: 1 Hz is below the 1000000000 Hz scan step\n"
        assert captured.out == ""

    def test_find_max(self, write_config, capsys):
        code = main(["sta", "--config", write_config(frequency="42GHz"), "--find-max"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert out.startswith("max feasible frequency: 100 GHz\n")
        assert "frequency 100 GHz" in out

    def test_find_max_refuses_a_window_outside_a_cell_range_before_the_scan(self, write_config, capsys, monkeypatch):
        scans = []
        monkeypatch.setattr(cli, "max_frequency", lambda cfg: scans.append(cfg) or 100 * 10**9)
        code = main(["sta", "--config", write_config(), "--find-max", "--bias-lo", "0.5", "--bias-hi", "1.13"])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.out == ""
        assert captured.err == "error: bias window [0.5, 1.13] exceeds write_dro operating range [0.76, 1.24]\n"
        assert scans == []


#: A config with the loop jitter late by more than the recirc_setup slack (2000 fs) on trip 1.
LATE_TRIP = {"loop_jitter": ["0fs", "2500fs", "0fs"]}
#: A config whose loop is 1 fs long: each bit aliases into another address.
ALIASING = {"loop_delay": "1fs"}
#: A config whose trip-1 jitter makes the loop's delay -1500 fs.
NEGATIVE_LOOP = {"loop_delay": "1000fs", "loop_jitter": ["0fs", "-2500fs"]}
#: A write to address 1 read with every address on each of four trips.
READ_EVERY_ADDRESS = [{"write": {"addr": 1, "bit": 1}, "reads": [0, 1, 2]}] + [{"reads": [0, 1, 2]}] * 3


class TestStaAgreesWithSimulate:
    def test_a_late_trip_fails_recirc_setup(self, write_config, write_program, capsys):
        config = write_config(**LATE_TRIP)
        code = main(["sta", "--config", config])
        out = capsys.readouterr().out
        assert code == EXIT_RUN_FAILED
        assert "recirc_setup   recirc_dro2r       -500\n" in out
        assert "recirc_data_next_trip  [-5000, -2500]\n" in out
        assert out.endswith("timing VIOLATED (recirc_setup)\n")
        code = main(["simulate", "--config", config, "--program", write_program(READ_EVERY_ADDRESS)])
        out = capsys.readouterr().out
        assert code == EXIT_RUN_FAILED
        assert "violation: SETUP recirc_dro2r at 105000 fs: clock0 2500 fs after data (setup 3000 fs)\n" in out

    def test_an_aliasing_loop_fails_every_margin_at_nominal(self, write_config, capsys):
        config = write_config(**ALIASING)
        assert main(["sta", "--config", config]) == EXIT_RUN_FAILED
        assert capsys.readouterr().out.endswith("timing VIOLATED (recirc_hold)\n")
        code = main(["margins", "--config", config, "--freqs", "20GHz,50GHz,75GHz,100GHz"])
        out = capsys.readouterr().out
        assert code == EXIT_RUN_FAILED
        assert out.splitlines()[1:] == [f"{ghz:>8} {'--':>6} {'--':>6}  WRONG_READ / WRONG_READ" for ghz in (20, 50, 75, 100)]

    @pytest.mark.parametrize("command", ["simulate", "margins"])
    def test_a_non_positive_loop_is_refused_by_its_jitter_entry(self, write_config, write_program, capsys, command):
        config = write_config(**NEGATIVE_LOOP)
        extra = ["--program", write_program(READ_EVERY_ADDRESS)] if command == "simulate" else ["--freqs", "100GHz"]
        code = main([command, "--config", config, *extra])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.err == "error: loop_jitter[1]: makes trip 1's loop delay -1500 fs; it must stay positive\n"
        assert captured.out == ""
        # sta reads the same config, and fails its recirc_hold row
        assert main(["sta", "--config", config]) == EXIT_RUN_FAILED
        assert capsys.readouterr().out.endswith("timing VIOLATED (recirc_hold)\n")


class TestMargins:
    def test_single_frequency(self, write_config, capsys):
        code = main(["margins", "--config", write_config(), "--freqs", "100GHz"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "-13%" in out and "+13%" in out and "HOLD / SETUP" in out

    def test_sweep_with_csv_export(self, write_config, tmp_path, capsys):
        out_path = tmp_path / "margins.csv"
        code = main(
            ["margins", "--config", write_config(), "--freqs", "500GHz,100GHz,200GHz", "--out", str(out_path)]
        )
        capsys.readouterr()
        assert code == EXIT_RUN_FAILED  # 200 GHz fails at nominal bias
        assert out_path.read_text() == (
            "frequency_hz,lower_pct,upper_pct,lower_limiter,upper_limiter\n"
            "100000000000,13,13,HOLD,SETUP\n"
            "200000000000,,,SETUP,SETUP\n"
            "500000000000,,,INFEASIBLE,INFEASIBLE\n"
        )

    def test_a_row_failing_at_nominal_exits_4_and_a_row_marked_infeasible_does_not(self, write_config, capsys):
        assert main(["margins", "--config", write_config(**ALIASING), "--freqs", "100GHz"]) == EXIT_RUN_FAILED
        assert capsys.readouterr().out.splitlines()[1:] == [f"{100:>8} {'--':>6} {'--':>6}  WRONG_READ / WRONG_READ"]
        assert main(["margins", "--config", write_config(), "--freqs", "100GHz,500GHz"]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[1:] == [f"{100:>8} {'-13%':>6} {'+13%':>6}  HOLD / SETUP",
                                                            f"{500:>8} {'--':>6} {'--':>6}  infeasible"]

    def test_an_interval_below_1_fs_marks_its_row_infeasible(self, write_config, capsys):
        code = main(["margins", "--config", write_config(loop_delay="1fs"), "--freqs", "3000THz,100GHz"])
        out = capsys.readouterr().out
        assert code == EXIT_RUN_FAILED  # the 1 fs loop aliases every bit at 100 GHz: that row fails at nominal bias
        assert out.splitlines()[1:] == [f"{100:>8} {'--':>6} {'--':>6}  WRONG_READ / WRONG_READ",
                                        f"{3e6:>8g} {'--':>6} {'--':>6}  infeasible"]

    def test_a_frequency_whose_derived_loop_the_jitter_cancels_is_marked_infeasible(self, write_config, capsys):
        # the derived loop is 30000 fs at 100 GHz and shorter at 120 GHz, where -25000 fs cancels it
        config = write_config(loop_jitter=["-25000fs"])
        code = main(["margins", "--config", config, "--freqs", "100GHz,120GHz"])
        out = capsys.readouterr().out
        assert code == EXIT_RUN_FAILED  # 100 GHz fails at nominal bias; 120 GHz, marked infeasible, alone would exit 0
        assert out.splitlines()[1:] == [f"{100:>8} {'--':>6} {'--':>6}  SETUP / SETUP", f"{120:>8} {'--':>6} {'--':>6}  infeasible"]
        code = main(["margins", "--config", config, "--freqs", "120GHz"])
        captured = capsys.readouterr()
        assert code == EXIT_INFEASIBLE and captured.out == ""
        assert captured.err.startswith("error: loop_jitter[0]: at 120000000000 Hz it makes trip 0's loop delay -")

    def test_a_repeated_frequency_is_one_frequency(self, write_config, capsys):
        config = write_config()
        runs = {}
        for freqs in ("1THz", "1THz,1THz", "100GHz", "100GHz,100GHz"):
            code = main(["margins", "--config", config, "--freqs", freqs])
            runs[freqs] = code, capsys.readouterr()
        # an infeasible frequency is an error however often it is given
        assert runs["1THz"] == runs["1THz,1THz"]
        code, captured = runs["1THz"]
        assert code == EXIT_INFEASIBLE and captured.out == "" and captured.err.startswith("error: ")
        assert runs["100GHz"] == runs["100GHz,100GHz"]
        assert runs["100GHz"][0] == EXIT_OK

    def test_empty_frequency_list(self, write_config, capsys):
        code = main(["margins", "--config", write_config(), "--freqs", " "])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "comma-separated frequency list" in err


class TestDensity:
    def test_all_reproduces_published_table(self, capsys):
        code = main(["density", "--all"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "verified 33/33 published cells (3 flagged-inconsistent cells reported unchecked)" in out

    def test_all_csv_to_file(self, tmp_path, capsys):
        out_path = tmp_path / "density.csv"
        code = main(["density", "--all", "--format", "csv", "--out", str(out_path)])
        capsys.readouterr()
        assert code == EXIT_OK
        lines = out_path.read_text().splitlines()
        assert lines[0] == "preset,frequency_ghz,layers,speed_factor,density_mbit_cm2,published,verdict"
        assert len(lines) == 37  # header + 32 table rows + 4 stacked rows

    def test_stacked_preset_via_alias(self, capsys):
        code = main(["density", "--preset", "nbn-15nm", "--freqs", "100GHz", "--layers", "100"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "3463.943" in out

    def test_custom_frequencies(self, capsys):
        code = main(["density", "--preset", "nb-stripline-250", "--freqs", "10GHz,100GHz", "--format", "csv"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "nb-stripline-250,10.0,4," in out
        assert "nb-stripline-250,100.0,4," in out

    @pytest.mark.parametrize("which", [["--all"], ["--preset", "nb-stripline-250"]])
    def test_a_frequency_too_large_for_a_float(self, capsys, which):
        code = main(["density", *which, "--freqs", "1e400GHz"])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.err == "error: freqs: frequency too large for a float\n"
        assert captured.out == ""

    def test_unknown_preset(self, capsys):
        code = main(["density", "--preset", "ybco"])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err == f"error: preset: unknown preset 'ybco'; valid names: {', '.join(PRESETS)}\n"

    def test_help_lists_the_presets_in_order(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["density", "--help"])
        assert info.value.code == EXIT_OK
        # argparse wraps the line at spaces and after hyphens, adding whitespace alone
        assert "".join(f"--preset PRESET one of: {', '.join(PRESETS)}".split()) in "".join(capsys.readouterr().out.split())

    def test_layers_require_a_single_preset(self, capsys):
        code = main(["density", "--all", "--layers", "100"])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "--layers applies to a single --preset" in err


    @pytest.mark.parametrize("layers", ["0", "-3"])
    def test_layers_must_be_positive(self, capsys, layers):
        code = main(["density", "--preset", "nbn-nanowire-15", "--layers", layers])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.err == f"error: layers: --layers must be at least 1, got {layers}\n"
        assert captured.out == ""


class TestCharacterize:
    def test_explicit_sweep(self, write_config, capsys):
        code = main(
            ["characterize", "--config", write_config(), "--cell", "write_dro", "--lo", "0.76", "--hi", "1.0", "--step", "0.12"]
        )
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert out == "bias_ratio,delay_fs\n0.76,4170\n0.88,3540\n1.0,3000\n"

    def test_default_sweep_covers_the_operating_range(self, write_config, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        code = main(["characterize", "--config", write_config(), "--cell", "read_dro2r", "--out", str(out_path)])
        capsys.readouterr()
        assert code == EXIT_OK
        lines = out_path.read_text().splitlines()
        assert lines[0] == "bias_ratio,delay_fs"
        assert lines[1] == "0.76,4170"
        assert lines[-1] == "1.24,1770"
        assert len(lines) == 26  # header + 0.76..1.24 in 0.02 steps

    def test_unknown_cell(self, write_config, capsys):
        code = main(["characterize", "--config", write_config(), "--cell", "jj_array"])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "unknown cell" in err

    def test_bad_sweep_bounds(self, write_config, capsys):
        code = main(
            ["characterize", "--config", write_config(), "--cell", "merger", "--lo", "1.1", "--hi", "0.9"]
        )
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err == (
            "error: --lo: sweep start 1.1 exceeds its end 0.9 (an edge not given is the cell's operating-range edge)\n"
        )

    def test_default_edge_past_the_given_one(self, write_config, capsys):
        code = main(["characterize", "--config", write_config(), "--cell", "merger", "--hi", "0.5"])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("error: --hi: sweep start 0.76 exceeds its end 0.5")

    @pytest.mark.parametrize("step, points", [("1e-30", 480000000000000000000000000001), ("0.000048", 10001)])
    def test_sweep_over_the_point_cap_is_refused_before_any_run(self, write_config, capsys, step, points):
        # counted in exact arithmetic, so a vanishing step returns at once
        code = main(["characterize", "--config", write_config(), "--cell", "merger", "--step", step])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.err == f"error: --step: sweep of {points} points exceeds the cap of {MAX_SWEEP_POINTS}\n"
        assert captured.out == ""


#: One refused delay-model override per BiasDelayModel/CellParams check, as
#: (merger overrides, field named, message).
REFUSED_CELL_OVERRIDES = [
    (
        {"bias_curve": [[0.76, 1.39], [1.0, 1.1], [1.24, 0.59]]},
        "bias_curve",
        "nominal delay 1500 fs disagrees with the delay model at bias 1.0 (1650 fs)",
    ),
    ({"bias_curve": [[1.24, 0.59], [1.0, 1.0], [0.76, 1.39]]}, "bias_curve", "knot ratios must be strictly increasing"),
    ({"bias_curve": [[0.76, 1.0], [1.0, 1.0], [1.24, 0.59]]}, "bias_curve", "knot delays must be strictly decreasing"),
    ({"bias_curve": [[0.8, 1.3], [1.0, 1.0], [1.24, 0.59]]}, "bias_curve", "knots must span the operating range"),
    ({"operating_range": [1.1, 1.2]}, "operating_range", "operating range must bracket the nominal ratio 1.0"),
    ({"operating_range": [0.5, 1.5]}, "operating_range", "knots must span the operating range"),
    ({"prop_delay": "1fs"}, "prop_delay", "knot delays must be strictly decreasing"),
    (
        {"bias_curve": [[0.5, 2], [1, 1], [1.5, -1]], "operating_range": [0.5, 1.5]},
        "bias_curve",
        "delay at the range's high edge 1.5 is -1500 fs; it must be non-negative",
    ),
]


@pytest.mark.parametrize("merger, field, message", REFUSED_CELL_OVERRIDES)
@pytest.mark.parametrize(
    "command",
    [
        ["simulate", "--program", "PROGRAM"],
        ["sta", "--find-max"],
        ["margins", "--freqs", "100GHz,50GHz"],
        ["characterize", "--cell", "write_dro"],
    ],
    ids=lambda command: command[0],
)
def test_refused_cell_override_names_the_field(write_config, write_program, capsys, command, merger, field, message):
    config = write_config(cells={"merger": merger})
    argv = [write_program(WRITE_READ) if arg == "PROGRAM" else arg for arg in command]
    code = main([argv[0], "--config", config, *argv[1:]])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert captured.err == f"error: cells.merger.{field}: {message}\n"
    assert captured.out == ""


#: A write then a read of every address: a write_dro that emitted before its
#: clock would misread trip 1.
WRITE_READ_ALL = [{"write": {"addr": 1, "bit": 1}, "reads": [1]}, {"reads": [0, 1, 2]}]


@pytest.mark.parametrize(
    "command",
    [
        ["simulate", "--program", "PROGRAM"],
        ["sta"],
        ["characterize", "--cell", "write_dro", "--lo", "1.4", "--hi", "1.5", "--step", "0.05"],
    ],
    ids=lambda command: command[0],
)
def test_a_curve_whose_delay_turns_negative_in_range_is_refused(write_config, write_program, capsys, command):
    # accepted, write_dro would pin at -2400 fs at bias 1.45
    curve = {"bias_curve": [[0.5, 2], [1, 1], [1.5, -1]], "operating_range": [0.5, 1.5]}
    config = write_config(bias=1.45, cells={"write_dro": curve})
    argv = [write_program(WRITE_READ_ALL) if arg == "PROGRAM" else arg for arg in command]
    code = main([argv[0], "--config", config, *argv[1:]])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert captured.err == (
        "error: cells.write_dro.bias_curve: delay at the range's high edge 1.5 is -3000 fs; it must be non-negative\n"
    )
    assert captured.out == ""


def test_a_curve_negative_only_past_its_range_still_runs(write_config, write_program, capsys):
    config = write_config(cells={"write_dro": {"bias_curve": [[0.5, 2], [1, 1], [2, -1]]}})
    assert main(["simulate", "--config", config, "--program", write_program(WRITE_READ_ALL)]) == EXIT_OK
    assert capsys.readouterr().out.endswith("trip 1: addr 0 -> 0\ntrip 1: addr 1 -> 1\ntrip 1: addr 2 -> 0\nresult: PASS\n")
    argv = ["characterize", "--config", config, "--cell", "write_dro", "--lo", "1.2", "--hi", "1.24", "--step", "0.02"]
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == "bias_ratio,delay_fs\n1.2,1800\n1.22,1680\n1.24,1560\n"


def test_an_empty_program_over_many_addresses_holds_no_slot_per_address(write_config, write_program, capsys):
    # the oracle keeps the written bits alone: a slot per address would take 80 MB here
    program = write_program([])
    # a first run compiles the kernel and loads what a run loads lazily
    assert main(["simulate", "--config", write_config(), "--program", program]) == EXIT_OK
    capsys.readouterr()
    config = write_config(num_addresses=10**7)
    tracemalloc.start()
    try:
        code = main(["simulate", "--config", config, "--program", program])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    assert capsys.readouterr().out == "frequency 100 GHz, 10000000 addresses, bias 1.0\nresult: PASS\n"
    assert peak < 1_000_000, peak


def test_a_huge_exponent_on_the_command_line_is_refused_at_once(write_config):
    # 10**30000000, which Fraction computes before any bound could see it, took tens of seconds
    child = subprocess.run(
        [sys.executable, "-m", "fluxloop", "sta", "--config", write_config(), "--bias-hi", "1e30000000"],
        capture_output=True, text=True, env=_child_env(), timeout=10,
    )
    assert (child.returncode, child.stdout) == (EXIT_CONFIG, "")
    assert child.stderr == "error: --bias-hi: number has more than 1000 digits\n"


def test_a_huge_exponent_in_an_option_is_refused_naming_it(write_config, write_program, capsys):
    config, program = write_config(), write_program(WRITE_READ)
    for argv, field in (
        (["simulate", "--config", config, "--program", program, "--bias", "1e-30000000"], "--bias"),
        (["margins", "--config", config, "--freqs", "20GHz,1e30000000Hz"], "freqs"),
        (["characterize", "--config", config, "--cell", "write_dro", "--step", "1e30000000"], "--step"),
    ):
        assert main(argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {field}: number has more than 1000 digits\n")


def test_an_empty_program_over_a_billion_addresses_runs_in_bounded_memory(write_config, write_program):
    # under a 2 GB address-space limit: a slot per address would ask for 8 GB
    import resource  # POSIX only

    limit = (2 * 2**30, 2 * 2**30)
    child = subprocess.run(
        [sys.executable, "-m", "fluxloop", "simulate", "--config", write_config(num_addresses=10**9),
         "--program", write_program([])],
        capture_output=True, text=True, env=_child_env(), timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, limit),
    )
    assert (child.returncode, child.stderr) == (EXIT_OK, "")
    assert child.stdout == "frequency 100 GHz, 1000000000 addresses, bias 1.0\nresult: PASS\n"


#: The value each cell override is changed to; a duration not listed here
#: becomes the cell's default plus 500 fs.
CHANGED_OVERRIDES = {
    "prop_delay_out1": "3.5ps",
    "min_separation": "12ps",
    "bias_curve": [[0.7, 1.5], [1, 1], [1.3, 0.6]],
    "operating_range": [0.9, 1.1],
}
#: Every (cell, key) pair a config could name: the keys some cell reads, plus
#: the retired second-output delay.
ALL_KEYS = tuple(dict.fromkeys(key for keys in CELL_OVERRIDES.values() for key in keys))
OVERRIDE_PAIRS = [(cell, key) for cell in CELL_NAMES for key in (*ALL_KEYS, "prop_delay_out1")]


def _changed(cell: str, key: str):
    return CHANGED_OVERRIDES.get(key) or getattr(default_cell_params()[cell], f"{key}_fs") + 500


@lru_cache(maxsize=None)
def _outputs(cells_json: str = "{}") -> tuple[str, ...]:
    """The STA report on [0.87, 1.13], the margins at 50 and 100 GHz and the
    address-sweep trace of a 100 GHz 3-address config with these cells."""
    cfg = parse_config(f'{{"frequency": "100GHz", "num_addresses": 3, "cells": {cells_json}}}')
    renders = (
        lambda: sta_to_text(sta(cfg, "0.87", "1.13")),
        lambda: margins_to_csv(margin_sweep(cfg, [50 * 10**9, 100 * 10**9])),
        lambda: trace_to_csv(run_program(scenario_address_sweep(3), cfg).trace),
    )
    outputs = []
    for render in renders:
        try:
            outputs.append(render())
        except FluxloopError as exc:
            outputs.append(f"error: {exc}")
    return tuple(outputs)


@pytest.mark.parametrize("cell, key", OVERRIDE_PAIRS, ids=[f"{cell}.{key}" for cell, key in OVERRIDE_PAIRS])
def test_every_accepted_cell_override_moves_an_output(write_config, capsys, cell, key):
    cells = {cell: {key: _changed(cell, key)}}
    if key in CELL_OVERRIDES[cell]:
        assert _outputs(json.dumps(cells)) != _outputs()
        return
    # a key the cell does not read would change nothing, so it is refused
    code = main(["sta", "--config", write_config(cells=cells)])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    valid = ", ".join(CELL_OVERRIDES[cell])
    assert captured.err == f"error: cells.{cell}.{key}: unknown parameter (valid: {valid})\n"
    assert captured.out == ""


#: One non-finite JSON number per kind of numeric field, as (config fields,
#: field named).  ``1e400`` overflows to an infinite float when parsed.
NON_FINITE_FIELDS = [
    ('"frequency": 1e400', "frequency"),
    ('"frequency": NaN', "frequency"),
    ('"frequency": "100GHz", "search_ceiling": -Infinity', "search_ceiling"),
    ('"frequency": "100GHz", "retiming_guard": Infinity', "retiming_guard"),
    ('"frequency": "100GHz", "loop_jitter": [0, 1e400]', "loop_jitter[1]"),
    ('"frequency": "100GHz", "cells": {"merger": {"prop_delay": NaN}}', "cells.merger.prop_delay"),
    ('"frequency": "100GHz", "cells": {"merger": {"operating_range": [0.76, Infinity]}}', "cells.merger.operating_range"),
    ('"frequency": "100GHz", "cells": {"merger": {"bias_curve": [[0.76, 1e400], [1.24, 0.5]]}}', "cells.merger.bias_curve[0]"),
    ('"frequency": "100GHz", "phase_read": NaN', "phase_read"),
    ('"frequency": "100GHz", "bias": Infinity', "bias"),
]


@pytest.mark.parametrize(
    "fields, field",
    NON_FINITE_FIELDS,
    ids=[f"{field}-{re.search(r'1e400|NaN|-?Infinity', fields).group()}" for fields, field in NON_FINITE_FIELDS],
)
@pytest.mark.parametrize(
    "command",
    [["simulate", "--program", "PROGRAM"], ["sta"], ["margins", "--freqs", "100GHz"]],
    ids=lambda command: command[0],
)
def test_non_finite_numbers_are_refused_naming_the_field(tmp_path, write_program, capsys, command, fields, field):
    config = tmp_path / "config.json"
    config.write_text(f'{{{fields}, "num_addresses": 3}}')
    argv = [write_program(WRITE_READ) if arg == "PROGRAM" else arg for arg in command]
    code = main([argv[0], "--config", str(config), *argv[1:]])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert captured.err.startswith(f"error: {field}: ") and "Traceback" not in captured.err
    assert captured.out == ""


#: A JSON boolean in each ratio field, as (config fields, field named).
BOOLEAN_RATIOS = [
    ({"bias": True}, "bias"),
    ({"phase_read": False}, "phase_read"),
    ({"phase_write": True}, "phase_write"),
    ({"phase_data": False}, "phase_data"),
    ({"cells": {"merger": {"bias_curve": [[0.76, 1.39], [True, 1], [1.24, 0.59]]}}}, "cells.merger.bias_curve[1]"),
    ({"cells": {"merger": {"bias_curve": [[0.76, 1.39], [1, True], [1.24, 0.59]]}}}, "cells.merger.bias_curve[1]"),
    ({"cells": {"merger": {"operating_range": [False, True]}}}, "cells.merger.operating_range"),
]


@pytest.mark.parametrize("fields, field", BOOLEAN_RATIOS, ids=[json.dumps(fields) for fields, _ in BOOLEAN_RATIOS])
def test_booleans_are_refused_as_ratios_naming_the_field(write_config, capsys, fields, field):
    code = main(["sta", "--config", write_config(**fields)])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert captured.err == f"error: {field}: expected a ratio, got a boolean\n"
    assert captured.out == ""


#: A value of the wrong shape in a field, as (config fields, the error it exits with).
WRONG_SHAPES = [
    ({"cells": []}, "cells: expected an object of per-cell overrides"),
    ({"cells": {"merger": 5}}, "cells.merger: expected an object of parameter overrides"),
    ({"num_addresses": 3.0}, "num_addresses: expected an integer"),
    ({"header_intervals": 1.5}, "header_intervals: expected an integer"),
    ({"max_events": "5"}, "max_events: expected an integer"),
    ({"loop_jitter": "300fs"}, "loop_jitter: expected a list of per-trip offsets"),
]


@pytest.mark.parametrize("fields, error", WRONG_SHAPES, ids=[json.dumps(fields) for fields, _ in WRONG_SHAPES])
def test_a_wrongly_shaped_field_is_refused_by_name(write_config, capsys, fields, error):
    code = main(["sta", "--config", write_config(**fields)])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert captured.err == f"error: {error}\n"
    assert captured.out == ""


class _ClosedPipe:
    """A stdout whose reader has gone: writing (or, buffered, flushing) fails."""

    def __init__(self, fail_on: str):
        self.fail_on = fail_on

    def write(self, text: str) -> int:
        if self.fail_on == "write":
            raise BrokenPipeError(32, "Broken pipe")
        return len(text)

    def flush(self) -> None:
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self) -> int:
        raise io.UnsupportedOperation("fileno")


class TestClosedStdout:
    @pytest.mark.parametrize("fail_on", ["write", "flush"])
    @pytest.mark.parametrize(
        "command",
        [["sta", "--find-max"], ["sta", "--bias-lo", "0.86", "--bias-hi", "1.14"], ["margins", "--freqs", "100GHz"]],
        ids=lambda command: " ".join(command),
    )
    def test_a_closed_stdout_exits_quietly(self, write_config, capsys, monkeypatch, command, fail_on):
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(fail_on))
        code = main([command[0], "--config", write_config(), *command[1:]])
        err = capsys.readouterr().err
        assert code == EXIT_BROKEN_PIPE
        assert "Traceback" not in err and err == ""

    def test_density_to_a_closed_stdout(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdout", _ClosedPipe("write"))
        assert main(["density", "--all"]) == EXIT_BROKEN_PIPE
        assert capsys.readouterr().err == ""

    def test_a_pipe_closed_before_the_first_write(self, write_config):
        # the pipe has no reader before the child starts, so its first write to stdout fails
        reader, writer = os.pipe()
        os.close(reader)
        try:
            child = subprocess.run(
                [sys.executable, "-m", "fluxloop", "sta", "--config", write_config(), "--find-max"],
                stdout=writer, stderr=subprocess.PIPE, env=_child_env(), timeout=60,
            )
        finally:
            os.close(writer)
        assert child.returncode == EXIT_BROKEN_PIPE
        assert child.stderr == b""


@pytest.mark.parametrize(
    "args, field",
    [
        (["simulate", "--config", "{config}", "--program", "{program}", "--trace", "{missing}.csv"], "trace"),
        (["simulate", "--config", "{config}", "--program", "{program}", "--trace", "{missing}.vcd"], "trace"),
        (["margins", "--config", "{config}", "--freqs", "100GHz", "--out", "{missing}.csv"], "out"),
        (["density", "--all", "--out", "{missing}.txt"], "out"),
        (["density", "--preset", "nbn-nanowire-15", "--out", "{missing}.txt"], "out"),
        (["characterize", "--config", "{config}", "--cell", "merger", "--out", "{missing}.csv"], "out"),
    ],
)
def test_an_unwritable_output_path_exits_2_naming_the_option(write_config, write_program, tmp_path, capsys, args, field):
    missing = tmp_path / "no-such-dir" / "result"
    paths = {"config": write_config(), "program": write_program(WRITE_READ), "missing": missing}
    code = main([arg.format(**paths) for arg in args])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert captured.err.startswith(f"error: {field}: cannot write {missing}.")
    assert captured.err.endswith(": No such file or directory\n")
    assert captured.out == ""


#: A 100-trip program on 64 addresses: its trace spans several export chunks.
LONG = [{"write": {"addr": trip % 64, "bit": 1}, "reads": list(range(trip % 4, 64, 4))} for trip in range(100)]
SIMULATE_LONG = ["simulate", "--config", "{config64}", "--program", "{long}", "--trace"]


def test_the_long_program_spans_several_export_chunks():
    program = parse_program(json.dumps({"trips": LONG}))
    trace = run_program(program, parse_config('{"frequency": "100GHz", "num_addresses": 64}')).trace
    assert len(trace.keys) > 4 * EXPORT_CHUNK


class _Writes(io.StringIO):
    """A stdout that keeps each write."""

    def __init__(self) -> None:
        super().__init__()
        self.writes: list[str] = []

    def write(self, text: str) -> int:
        self.writes.append(text)
        return super().write(text)


def _old_report(program, cfg, result) -> str:
    """simulate's report but its result line, built whole from the oracle's dict."""
    expected = fluxloop.oracle(program, cfg.num_addresses)
    out = [f"frequency {cfg.frequency_hz / 1e9:g} GHz, {cfg.num_addresses} addresses, bias {format_ratio(cfg.bias)}"]
    for (trip, addr), bit in sorted(result.reads.items()):
        note = f"  (expected {expected[(trip, addr)]})" if expected[(trip, addr)] != bit else ""
        out.append(f"trip {trip}: addr {addr} -> {bit}{note}")
    out += [f"violation: {v.kind.value} {v.cell} at {v.time_fs} fs: {v.detail}" for v in result.trace.violations]
    return "\n".join(out) + "\n"


@st.composite
def reported_runs(draw):
    """A run of a drawn program, on a passing or a failing config, and a set of its reads to flip."""
    n = draw(st.integers(1, 12))
    doc = draw(st.sampled_from([{}, {"loop_delay": 20000, "bias": "0.5"}]))  # the second aliases and fails electrically
    cfg = parse_config(json.dumps({"frequency": "100GHz", "num_addresses": n, **doc}))
    writes = st.none() | st.tuples(st.integers(0, n - 1), st.integers(0, 1))
    trips = draw(st.lists(st.builds(TripOp, writes, st.lists(st.integers(0, n - 1), unique=True).map(tuple)), max_size=8))
    program = MemoryProgram(tuple(trips))
    result = run_program(program, cfg)
    flips = draw(st.sets(st.sampled_from(sorted(result.reads)))) if result.reads else set()
    return cfg, program, result, flips


@settings(max_examples=60)
@given(reported_runs())
def test_the_report_reads_as_one_f_string_per_line(run):
    cfg, program, result, flips = run
    expected = fluxloop.oracle(program, cfg.num_addresses)
    for reads in (result.reads, {slot: bit ^ (slot in flips) for slot, bit in result.reads.items()}):
        shown, mismatches = result._replace(reads=reads), sum(bit != expected[slot] for slot, bit in reads.items())
        stdout, sys.stdout = sys.stdout, io.StringIO()
        try:
            verdict = cli._report(cfg, program, shown)
            got = sys.stdout.getvalue()
        finally:
            sys.stdout = stdout
        assert got == _old_report(program, cfg, shown)
        assert (got.count("  (expected "), verdict) == (mismatches, result.passed and mismatches == 0)


class TestStreamedReport:
    """simulate writes its report ``EXPORT_CHUNK`` lines at a time."""

    @pytest.mark.parametrize("doc", [
        {"frequency": "100GHz", "num_addresses": 64},
        # every bit aliases into the previous slot, and every cell fails electrically
        {"frequency": "100GHz", "num_addresses": 64, "loop_delay": 20000, "bias": "0.5"},
    ])
    def test_the_report_is_the_whole_report_in_chunks(self, tmp_path, monkeypatch, doc):
        (config := tmp_path / "config.json").write_text(json.dumps(doc))
        (long := tmp_path / "long.json").write_text(json.dumps({"trips": LONG}))
        program, cfg = parse_program(long.read_text()), parse_config(config.read_text())
        result = run_program(program, cfg)
        monkeypatch.setattr(sys, "stdout", file := _Writes())
        code = main(["simulate", "--config", str(config), "--program", str(long)])
        passed = result.passed and result.reads == fluxloop.oracle(program, cfg.num_addresses)
        assert code == (EXIT_OK if passed else EXIT_RUN_FAILED)
        assert file.getvalue() == _old_report(program, cfg, result) + f"result: {'PASS' if passed else 'FAIL'}\n"
        reads, violations = len(result.reads), len(result.trace.violations)
        assert reads > 3 * EXPORT_CHUNK and (passed or violations)
        # the header, then the reads and the violations in chunks, then the result line
        report = file.writes[:file.writes.index(f"result: {'PASS' if passed else 'FAIL'}")]
        assert len(report) == 1 + -(-reads // EXPORT_CHUNK) + -(-violations // EXPORT_CHUNK)

    def test_a_closed_stdout_exits_quietly(self, tmp_path, capsys, monkeypatch):
        (config := tmp_path / "config.json").write_text('{"frequency": "100GHz", "num_addresses": 64}')
        (long := tmp_path / "long.json").write_text(json.dumps({"trips": LONG}))
        monkeypatch.setattr(sys, "stdout", _ClosedPipe("write"))
        assert main(["simulate", "--config", str(config), "--program", str(long)]) == EXIT_BROKEN_PIPE
        assert capsys.readouterr().err == ""

    def test_the_report_of_a_long_program_holds_a_fraction_of_its_text(self, monkeypatch):
        # the store_stream workload's shape over 2,000 trips: 64 addresses, one write and 16 reads a trip
        rng = random.Random(1)
        trips = tuple(TripOp((rng.randrange(64), rng.randrange(2)), tuple(sorted(rng.sample(range(64), 16))))
                      for _ in range(2000))
        program, cfg = MemoryProgram(trips), parse_config('{"frequency": "100GHz", "num_addresses": 64}')
        result = run_program(program, cfg)
        monkeypatch.setattr(sys, "stdout", sink := _Sink())
        tracemalloc.start()
        try:
            assert cli._report(cfg, program, result)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sink.size > 700_000 and peak < sink.size / 4, (peak, sink.size)


class _Sink:
    """A stdout that counts what is written and keeps none of it."""

    size = 0

    def write(self, text: str) -> int:
        self.size += len(text)
        return len(text)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that refuses every write")
@pytest.mark.parametrize(
    "args, field",
    [
        (["simulate", "--config", "{config}", "--program", "{program}", "--trace", "{full}.vcd"], "trace"),
        (["simulate", "--config", "{config}", "--program", "{program}", "--trace", "{full}.csv"], "trace"),
        ([*SIMULATE_LONG, "{full}.vcd"], "trace"),
        ([*SIMULATE_LONG, "{full}.csv"], "trace"),
        (["margins", "--config", "{config}", "--freqs", "100GHz", "--out", "{full}.csv"], "out"),
        (["density", "--all", "--out", "{full}.txt"], "out"),
        (["characterize", "--config", "{config}", "--cell", "merger", "--out", "{full}.csv"], "out"),
    ],
)
def test_a_write_that_fails_after_the_open_exits_2(write_config, write_program, tmp_path, capsys, args, field):
    # the open succeeds; a write, or the flush at close, fails for want of space
    full = tmp_path / "full"
    for suffix in (".vcd", ".csv", ".txt"):
        full.with_suffix(suffix).symlink_to("/dev/full")
    (config64 := tmp_path / "config64.json").write_text('{"frequency": "100GHz", "num_addresses": 64}')
    (long := tmp_path / "long.json").write_text(json.dumps({"trips": LONG}))
    paths = {"config": write_config(), "program": write_program(WRITE_READ), "full": full, "config64": config64, "long": long}
    argv = [arg.format(**paths) for arg in args]
    code = main(argv)
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {field}: cannot write {argv[-1]}: No space left on device\n"


def test_find_max_past_the_scan_cap_is_refused(write_config, capsys):
    code = main(["sta", "--config", write_config(search_ceiling="1e20Hz"), "--find-max"])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert captured.err == (
        f"error: search_ceiling: {10**20} Hz puts {10**11} points on the 1000000000 Hz scan grid (at most 10000)\n"
    )
    assert captured.out == ""


class TestParser:
    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--program", "x.json"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["defragment"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_density_preset_and_all_conflict(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["density", "--preset", "nb-stripline-250", "--all"])
        assert exc.value.code == 2
        capsys.readouterr()
