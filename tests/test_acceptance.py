"""Top-level acceptance gate: the headline behaviors, each with its budget.

Every test here re-derives its expectations through the independent
reference computations in tests/_oracle.py (decimal/float arithmetic on a
different route than the package's exact-fraction internals) and prints one
pass line, so ``pytest -v -s tests/test_acceptance.py`` reads as a
checklist.
"""

from __future__ import annotations

import random
import time

import _oracle
import pytest

from fluxloop import (
    MemoryProgram,
    SimConfig,
    TripOp,
    bias_margin,
    jitter_tolerance,
    max_frequency,
    oracle,
    pulse_spacing,
    reproduce_published,
    run_program,
    scenario_overwrite,
    scenario_write_read,
    trace_to_csv,
    trace_to_vcd,
)
from fluxloop.core import serialize_config
from fluxloop.density import PRESETS, SPEED_OF_LIGHT, report_to_csv
from fluxloop.memory import default_margin_suite
from fluxloop.timing import margin_sweep, margins_to_csv

GHZ = 10**9


def _elapsed(t0: float) -> float:
    return time.monotonic() - t0


def test_published_density_table_reproduces_in_under_a_second():
    t0 = time.monotonic()
    report = reproduce_published()
    dt = _elapsed(t0)

    checked = [r for r in report.rows if r.within_tolerance is not None]
    assert len(checked) >= 28
    assert all(r.within_tolerance for r in checked)
    stacked = [r for r in report.rows if r.layers == 100]
    assert len(stacked) == 4 and all(r.within_tolerance for r in stacked)
    assert len(report.factors) == 8
    assert all(abs(f.computed - f.published) <= 0.001 for f in report.factors)

    # cross-check every computed cell against the independent reference
    for row in report.rows:
        spec = PRESETS[row.preset]
        want = _oracle.density_mbit_cm2(
            spec.inductance_ph_per_um,
            spec.capacitance_ff_per_um,
            spec.linewidth_nm,
            spec.spacing_nm,
            row.layers,
            row.frequency_ghz,
            speed_factor=spec.speed_factor_override,
        )
        assert row.computed == pytest.approx(want, rel=1e-9)

    assert dt < 1.0, f"density table took {dt:.3f} s"
    print(f"PASS: published density table reproduced, {len(checked)} cells verified in {dt:.3f} s")


def test_slowest_line_packs_bits_twenty_one_microns_apart():
    spacing = pulse_spacing(0.007 * SPEED_OF_LIGHT, 100e9)
    assert spacing == pytest.approx(21.0e-6, abs=0.3e-6)
    assert spacing == pytest.approx(_oracle.spacing_m(0.007, 100), rel=1e-12)
    print(f"PASS: 0.007c line at 100 GHz spaces bits {spacing * 1e6:.3f} um apart")


def test_write_read_golden_timeline():
    cfg = SimConfig(frequency_hz=100 * GHZ, num_addresses=3)
    t0 = time.monotonic()
    result = run_program(scenario_write_read(address=1, trips=3), cfg)
    dt = _elapsed(t0)

    assert result.passed
    assert result.trace.violations == ()
    assert result.reads == {(0, 1): 1, (1, 1): 1, (2, 1): 1}
    assert _oracle.pulses_on(result.trace, "loop_data_in") == (30000, 70000, 110000)
    assert _oracle.pulses_on(result.trace, "loop_data_out") == (60000, 100000, 140000)
    assert _oracle.pulses_on(result.trace, "read_data") == (33000, 73000, 113000)
    assert dt < 0.1, f"golden run took {dt:.3f} s"
    print(f"PASS: write/read golden timeline exact in {dt * 1e3:.1f} ms")


def test_overwrite_empties_the_loop():
    cfg = SimConfig(frequency_hz=100 * GHZ, num_addresses=3)
    t0 = time.monotonic()
    result = run_program(scenario_overwrite(address=1), cfg)
    dt = _elapsed(t0)

    assert result.passed
    assert result.reads == {(0, 1): 1, (2, 1): 0}
    trip = 40000
    late_loop = [t for t in _oracle.pulses_on(result.trace, "loop_data_in") if t >= 2 * trip]
    assert late_loop == []
    assert _oracle.pulses_on(result.trace, "loop_data_in") == (30000,)
    assert dt < 0.1, f"overwrite run took {dt:.3f} s"
    print(f"PASS: overwrite leaves no circulating pulse from trip 2 on ({dt * 1e3:.1f} ms)")


def test_a_thousand_random_programs_match_reference_semantics():
    rng = random.Random(20250814)
    t0 = time.monotonic()
    mismatches = 0
    for _ in range(1000):
        n = rng.randint(2, 8)
        trips = []
        for _ in range(rng.randint(1, 10)):
            write = (rng.randrange(n), rng.randint(0, 1)) if rng.random() < 0.6 else None
            reads = tuple(sorted(rng.sample(range(n), rng.randint(0, n))))
            trips.append(TripOp(write=write, reads=reads))
        program = MemoryProgram(trips=tuple(trips))
        cfg = SimConfig(frequency_hz=100 * GHZ, num_addresses=n)
        result = run_program(program, cfg)
        if not result.passed or result.reads != oracle(program, n):
            mismatches += 1
    dt = _elapsed(t0)
    assert mismatches == 0
    assert dt < 30.0, f"1000 programs took {dt:.1f} s"
    print(f"PASS: 1000 random programs decoded oracle-identically in {dt:.1f} s")


def test_maximum_feasible_frequency_is_100ghz():
    cfg = SimConfig(frequency_hz=50 * GHZ, num_addresses=3)
    rating = max_frequency(cfg)
    assert abs(rating - 100 * GHZ) <= 1 * GHZ
    print(f"PASS: maximum feasible frequency rated {rating / 1e9:g} GHz")


def test_bias_margin_table():
    t0 = time.monotonic()
    reports = {
        f: bias_margin(SimConfig(frequency_hz=f * GHZ, num_addresses=3)) for f in (20, 50, 75, 100)
    }
    dt = _elapsed(t0)

    # the design point: +-13% exactly, hold-limited low, setup-limited high
    top = reports[100]
    assert (top.lower_pct, top.upper_pct) == (13, 13)
    assert (top.lower_limiter, top.upper_limiter) == ("HOLD", "SETUP")

    # generous electrically-limited margins at low frequency
    low = reports[20]
    assert low.lower_pct >= 20 and low.upper_pct >= 20
    assert low.lower_limiter == "ELECTRICAL" and low.upper_limiter == "ELECTRICAL"

    widths = [reports[f].lower_pct + reports[f].upper_pct for f in (20, 50, 75, 100)]
    assert all(b <= a for a, b in zip(widths, widths[1:])), widths

    for f, report in reports.items():
        lo, hi, lo_kind, hi_kind = _oracle.margin_bounds(f * GHZ)
        assert (report.lower_pct, report.upper_pct) == (lo, hi)
        assert (report.lower_limiter, report.upper_limiter) == (lo_kind, hi_kind)

    assert dt < 120.0, f"margin table took {dt:.1f} s"
    print(f"PASS: bias margins across 20-100 GHz match the closed-form bounds in {dt:.1f} s")


def test_loop_jitter_retiming_window():
    cfg = SimConfig(frequency_hz=100 * GHZ, num_addresses=3)
    window = jitter_tolerance(cfg)
    assert (window.lo_fs, window.hi_fs) == _oracle.jitter_window_fs(100 * GHZ)

    program = scenario_write_read(address=1, trips=4)
    reference = run_program(program, cfg)
    rng = random.Random(314159)
    t0 = time.monotonic()
    cases = 0

    # anywhere inside the window the re-timing clock absorbs the error
    for _ in range(120):
        jitter = rng.randint(window.lo_fs, window.hi_fs)
        trip_idx = rng.randint(0, 3)
        offsets = [0, 0, 0, 0]
        offsets[trip_idx] = jitter
        result = run_program(program, cfg._replace(loop_jitter_fs=tuple(offsets)))
        assert result.passed, (jitter, trip_idx)
        assert _oracle.pulses_on(result.trace, "loop_data_in") == _oracle.pulses_on(reference.trace, "loop_data_in")
        cases += 1

    # in the detectable bands a violation must fire, provided a later trip
    # still clocks the bit (an error on the final traversal meets no clock)
    for _ in range(120):
        band = window.detect_below if rng.random() < 0.5 else window.detect_above
        jitter = rng.randint(band[0], band[1])
        trip_idx = rng.randint(0, 2)
        offsets = [0, 0, 0, 0]
        offsets[trip_idx] = jitter
        result = run_program(program, cfg._replace(loop_jitter_fs=tuple(offsets)))
        assert not result.passed, (jitter, trip_idx)
        kinds = {v.kind.value for v in result.trace.violations}
        assert kinds & {"SETUP", "HOLD"}, (jitter, trip_idx, kinds)
        cases += 1

    dt = _elapsed(t0)
    assert cases >= 200
    assert dt < 10.0, f"jitter sweep took {dt:.1f} s"
    print(f"PASS: {cases} jitter cases behave per the re-timing window in {dt:.1f} s")


def test_byte_identical_reruns():
    cfg = SimConfig(frequency_hz=100 * GHZ, num_addresses=3)
    program = scenario_write_read(address=1, trips=3)

    def artifacts() -> tuple[bytes, ...]:
        result = run_program(program, cfg)
        sweep = margin_sweep(cfg, [100 * GHZ, 200 * GHZ], scenarios=default_margin_suite(cfg))
        return (
            trace_to_csv(result.trace).encode(),
            trace_to_vcd(result.trace).encode(),
            margins_to_csv(sweep).encode(),
            report_to_csv(reproduce_published()).encode(),
            serialize_config(cfg).encode(),
        )

    first = artifacts()
    second = artifacts()
    assert first == second
    print("PASS: trace, margin, density and config artifacts are byte-identical across reruns")
