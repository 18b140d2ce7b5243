"""Byte-identity gate: exported artifacts of fixed runs, pinned by sha256.

Traces, margin tables and STA reports must not change under a refactor or a
speed-up; a changed digest here is a behaviour change and needs its own
justification.  Each artifact is rendered from a fixed, seeded input, so the
digests hold on every platform.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
import random
from functools import lru_cache

import pytest

from fluxloop import (
    BiasPoint,
    MemoryProgram,
    SimConfig,
    TripOp,
    max_frequency,
    parse_config,
    run_program,
    sta,
    trace_to_csv,
    trace_to_vcd,
)
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
    off_nominal = run_program(program, cfg.with_bias(BiasPoint.of("0.80"))).trace
    out_of_range = run_program(program, cfg.with_bias(BiasPoint.of("1.30"))).trace
    jitter_rng = random.Random(7)
    jitter_cfg = replace(
        cfg, loop_jitter_fs=tuple(jitter_rng.randint(-4000, 4000) for _ in range(40))
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
                    "read_dro2r": {"setup": "6ps", "prop_delay_out1": "2ps"},
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
                    "recirc_dro2r": {"prop_delay": "2.5ps", "prop_delay_out1": "3.5ps"},
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
        + sta_to_text(sta(replace(asymmetric, loop_delay_fs=70_000), "0.95", "1.2"))
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
