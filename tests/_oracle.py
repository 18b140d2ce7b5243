"""Independent reference computations used to pin expected test values.

Everything here is deliberately written along different routes than the
package (decimal arithmetic instead of Fraction, per-centimeter unit
chains instead of SI, closed-form pass/fail inequalities instead of event
simulation, trace exports and per-line pulse times read from
``Trace.events`` instead of kernel keys) so that a shared bug cannot
silently agree with itself.  The numeric literals frozen into the test
suite were produced by these functions and cross-checked by hand before
being committed.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from decimal import ROUND_HALF_UP, Decimal
from itertools import cycle

from fluxloop import FluxloopError, Trace
from fluxloop.engine import UnknownLineError

C_LIGHT = 2.998e8  # m/s

# (bias ratio, delay multiplier) calibration knots, as plain floats.
CURVE = ((0.76, 1.39), (0.86, 1.21), (1.00, 1.00), (1.14, 0.79), (1.24, 0.59))
RANGE_LO, RANGE_HI = 0.76, 1.24


def rhu(value) -> int:
    """Round half up via decimal, independent of the package's Fraction path."""
    return int(Decimal(str(value)).quantize(Decimal("1"), rounding=ROUND_HALF_UP))


def interval_fs(frequency_hz: int) -> int:
    return rhu(Decimal(10) ** 15 / Decimal(frequency_hz))


def multiplier(ratio: float) -> float:
    """Piecewise-linear delay multiplier at a bias ratio (floats throughout)."""
    if not (RANGE_LO <= ratio <= RANGE_HI):
        raise ValueError(f"{ratio} outside electrical range")
    for (r0, m0), (r1, m1) in zip(CURVE, CURVE[1:]):
        if r0 <= ratio <= r1:
            t = (ratio - r0) / (r1 - r0)
            return m0 + t * (m1 - m0)
    raise AssertionError("unreachable")


def cell_delay(nominal_fs: int, ratio: float) -> int:
    return rhu(nominal_fs * multiplier(ratio))


def merged_path(ratio: float) -> int:
    """Write/recirc source to loop input: 3 ps cell + 1.5 ps merge + 0.5 ps fan-out."""
    return cell_delay(3000, ratio) + cell_delay(1500, ratio) + cell_delay(500, ratio)


def margin_step_passes(frequency_hz: int, pct: int) -> tuple[bool, str | None]:
    """Closed-form pass/fail for one signed bias step of the margin scan.

    Re-derives the four binding inequalities of the calibrated controller
    (read-cell setup/hold against the merged-path arrival, recirculation
    setup/hold against the loop return) instead of simulating them.
    """
    ratio = 1 + pct / 100
    if not (RANGE_LO <= round(ratio, 2) <= RANGE_HI):
        return False, "ELECTRICAL"
    interval = interval_fs(frequency_hz)
    ph_read = rhu(Decimal("0.2") * interval)
    ph_write = rhu(Decimal("0.5") * interval)
    path = merged_path(round(ratio, 2))

    failures: list[tuple[int, str]] = []  # (ordering key: event time class, kind)
    if ph_write + path - ph_read < 7000:  # read-cell setup, at the release edge
        failures.append((1, "SETUP"))
    if interval + ph_read - (ph_write + path) < 1000:  # read-cell hold, next interval
        failures.append((2, "HOLD"))
    if interval - 10000 + path < 1000:  # recirc hold vs previous complement clock
        failures.append((3, "HOLD"))
    if 10000 - path < 3000:  # recirc setup vs own complement clock (guarded loop)
        failures.append((4, "SETUP"))
    if not failures:
        return True, None
    return False, min(failures)[1]


def margin_bounds(frequency_hz: int, cap: int = 50) -> tuple[int, int, str | None, str | None]:
    lower = upper = cap
    lower_kind = upper_kind = None
    for pct in range(1, cap + 1):
        ok, kind = margin_step_passes(frequency_hz, -pct)
        if not ok:
            lower, lower_kind = pct - 1, kind
            break
    for pct in range(1, cap + 1):
        ok, kind = margin_step_passes(frequency_hz, pct)
        if not ok:
            upper, upper_kind = pct - 1, kind
            break
    return lower, upper, lower_kind, upper_kind


def jitter_window_fs(frequency_hz: int) -> tuple[int, int]:
    interval = interval_fs(frequency_hz)
    return -(interval - 3000 - 2000 - 1000), 2000


def velocity_mps(l_ph_per_um: float, c_ff_per_um: float) -> float:
    """Line velocity from per-micrometer reactances, staying in um units."""
    tau_s_per_um = math.sqrt(l_ph_per_um * c_ff_per_um * 1e-27)
    return 1e-6 / tau_s_per_um


def density_mbit_cm2(
    l_ph_per_um: float,
    c_ff_per_um: float,
    linewidth_nm: float,
    spacing_nm: float,
    layers: int,
    frequency_ghz: float,
    speed_factor: float | None = None,
) -> float:
    """Areal density via a bits-per-cm x lines-per-cm chain."""
    v = speed_factor * C_LIGHT if speed_factor is not None else velocity_mps(l_ph_per_um, c_ff_per_um)
    bits_per_cm = frequency_ghz * 1e9 / (v * 100.0)
    lines_per_cm = 1e7 / (linewidth_nm + spacing_nm)
    return bits_per_cm * lines_per_cm * layers / 1e6


def spacing_m(speed_factor: float, frequency_ghz: float) -> float:
    cm_per_s = speed_factor * C_LIGHT * 100.0
    return cm_per_s / (frequency_ghz * 1e9) / 100.0


def trace_to_csv(trace) -> str:
    """``engine.trace_to_csv`` rendered from the trace's ``(time_fs, line)`` events."""
    events = trace.events
    pulse_rows = {line: f",{line},pulse," for line in trace.observed}
    out = ["time_fs,line,kind,detail"]
    done = 0
    for time_fs, cell, detail in sorted((v.time_fs, v.cell, f"{v.kind.value}: {v.detail}") for v in trace.violations):
        # events are (time, line)-ordered: the pulses up to this instant first
        upto = bisect_left(events, (time_fs + 1,))
        out += [f"{t}{pulse_rows[line]}" for t, line in events[done:upto]]
        done = upto
        if "," in detail or '"' in detail:
            detail = '"' + detail.replace('"', '""') + '"'
        out.append(f"{time_fs},{cell},violation,{detail}")
    out += [f"{t}{pulse_rows[line]}" for t, line in events[done:]]
    return "\n".join(out) + "\n"


def trace_to_vcd(trace) -> str:
    """``engine.trace_to_vcd`` rendered from the trace's ``(time_fs, line)`` events."""
    if len(trace.observed) > 94:
        raise FluxloopError("too many observed lines for single-character VCD ids")
    ids = {line: chr(33 + i) for i, line in enumerate(trace.observed)}
    out = ["$timescale 1fs $end", "$scope module fluxloop $end"]
    out += [f"$var wire 1 {ids[line]} {line} $end" for line in trace.observed]
    out += ["$upscope $end", "$enddefinitions $end", "#0"]
    # events are (time, line)-ordered: the t=0 pulses set the initial levels,
    # and each later pulse toggles its line
    events = trace.events
    start = bisect_left(events, (1,))
    high = {line for _, line in events[:start]}
    out += [f"{int(line in high)}{ids[line]}" for line in trace.observed]
    toggle = {
        line: cycle((f"{int(line not in high)}{ids[line]}", f"{int(line in high)}{ids[line]}")).__next__
        for line in trace.observed
    }
    t_prev = 0
    for t, line in events[start:]:
        if t != t_prev:
            t_prev = t
            out.append(f"#{t}")
        out.append(toggle[line]())
    return "\n".join(out) + "\n"


def pulses_on(trace, line: str) -> tuple[int, ...]:
    """The times of ``trace``'s pulses on ``line``, read from its ``(time_fs, line)`` events;
    a line the trace does not observe raises ``UnknownLineError``."""
    if line not in trace.observed:
        raise UnknownLineError(f"line {line!r} is not observed by this trace")
    return tuple(t for t, on in trace.events if on == line)


def trace_of(events, violations, observed: tuple[str, ...], t_end_fs: int, bias) -> Trace:
    """A ``Trace`` built by hand from ``(time_fs, line)`` pulses on observed
    lines, keyed over the observed lines alone, sorted by name."""
    lines = tuple(sorted(observed))
    keys = sorted(t * len(lines) + lines.index(line) for t, line in events)
    return Trace(tuple(keys), lines, tuple(violations), tuple(observed), t_end_fs, bias)
