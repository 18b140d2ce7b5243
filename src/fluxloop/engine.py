"""Deterministic discrete-event kernel.

A netlist joins cell instances through named signal lines.  Pulses are
events on lines; a cell consumes the lines wired to its input ports and
emits onto the lines wired to its outputs.  Two connection shapes exist:

* line -> cell port  — zero-delay wiring (the cell steps synchronously
  when the line pulses);
* line -> line       — a delayed tap; the storage loop is the one delayed,
  cyclic connection in the controller.  A tap may carry a piecewise
  schedule of extra delay offsets (per-trip loop jitter).

Events at equal timestamps are ordered by line name, then insertion order,
so reruns of an identical (netlist, stimulus, bias) triple produce
bit-identical traces.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from operator import attrgetter
from types import MappingProxyType
from typing import Callable, Mapping

from .core import BiasPoint, FluxloopError, PulseEvent, format_ratio
from .cells import (
    INPUT_PORTS,
    OUTPUT_PORTS,
    CellParams,
    CellState,
    TimingViolation,
    ViolationKind,
    stepper_for,
)


class NetlistError(FluxloopError):
    """The netlist is structurally invalid."""


class UnknownLineError(FluxloopError):
    pass


class DuplicatePulseError(FluxloopError):
    pass


class RunawayQueueError(FluxloopError):
    """Event queue grew past its bound — runaway feedback."""


@dataclass(frozen=True)
class Connection:
    """One wire: ``src`` -> ``dst``.

    ``src`` is a line name or ``cell.port``; same for ``dst``.  Only
    line -> line taps may carry a delay; ``offset_schedule`` is a sorted
    tuple of (start_fs, extra_delay_fs) entries — a pulse entering at time
    t picks up the offset of the last entry whose start is <= t.
    """

    src: str
    dst: str
    delay_fs: int = 0
    offset_schedule: tuple[tuple[int, int], ...] = ()
    is_loop: bool = False


@dataclass(frozen=True)
class Netlist:
    """Cells wired by connections.

    ``cells`` is a read-only copy of the mapping given, since one netlist may
    serve many callers (``memory.build_controller`` memoizes).  The wiring is
    resolved once per netlist and each bias's pinned cells once per bias
    (:meth:`at_bias`), so a run only builds fresh cell states.
    """

    cells: Mapping[str, CellParams]
    connections: tuple[Connection, ...]
    external_inputs: frozenset[str]
    observed: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "cells", MappingProxyType(dict(self.cells)))
        _validate(self)

    @cached_property
    def _wiring(self) -> tuple[dict[str, tuple], dict[str, tuple[Connection, ...]]]:
        """(line -> its (stepper, cell, port, output-line map) consumers, line -> its taps)."""
        ports_on: dict[str, list[tuple[str, str]]] = {}
        taps: dict[str, list[Connection]] = {}
        out_lines: dict[str, dict[str, str]] = {name: {} for name in self.cells}
        for conn in self.connections:
            if _is_port(conn.dst):
                ports_on.setdefault(conn.src, []).append(_split_port(conn.dst))
            elif _is_port(conn.src):
                cell, port = _split_port(conn.src)
                out_lines[cell][port] = conn.dst
            else:
                taps.setdefault(conn.src, []).append(conn)
        consumers = {
            line: tuple(
                (stepper_for(self.cells[cell].kind), cell, port, out_lines[cell]) for cell, port in sorted(ports)
            )
            for line, ports in ports_on.items()
        }
        return consumers, {line: tuple(conns) for line, conns in taps.items()}

    # Bounded: a margin search visits at most 101 ratios per netlist.
    @cached_property
    def _pinned(self) -> Callable[[Fraction], "PinnedNetlist"]:
        return lru_cache(maxsize=128)(partial(_pin, self.cells, self._wiring[0]))

    def at_bias(self, bias: BiasPoint) -> "PinnedNetlist":
        """Every cell pinned at the bias it runs at (cached per bias ratio)."""
        return self._pinned(bias.ratio)


class PinnedNetlist:
    """A netlist's cells at one bias: constant delays, the t=0 ELECTRICAL
    violations of cells whose range excludes the bias, and each line's
    consumers as (stepper, cell, pinned params, port, output-line map)."""

    # A slotted class, not a dataclass or NamedTuple: defining one of those
    # costs 0.3-1.3 ms of every CLI start.
    __slots__ = ("cells", "violations", "consumers", "zero_delay")

    def __init__(
        self,
        cells: Mapping[str, CellParams],
        violations: tuple[TimingViolation, ...],
        consumers: Mapping[str, tuple[tuple, ...]],
        zero_delay: bool,
    ) -> None:
        self.cells = cells
        self.violations = violations
        self.consumers = consumers
        #: a zero pinned delay can emit at the current instant (see run_until)
        self.zero_delay = zero_delay


def _pin(cells: Mapping[str, CellParams], consumers: dict, ratio: Fraction) -> PinnedNetlist:
    bias = BiasPoint(ratio)
    violations = []
    pinned = {}
    for name in sorted(cells):
        params = cells[name]
        rng = params.operating_range()
        if rng is not None and not (rng[0] <= ratio <= rng[1]):
            violations.append(
                TimingViolation(
                    name,
                    ViolationKind.ELECTRICAL,
                    0,
                    f"bias {format_ratio(ratio)} outside operating range "
                    f"[{format_ratio(rng[0])}, {format_ratio(rng[1])}]",
                )
            )
        pinned[name] = params.at_bias(params.clamped_bias(bias))
    return PinnedNetlist(
        cells=MappingProxyType(pinned),
        violations=tuple(violations),
        consumers=MappingProxyType({
            line: tuple((stepper, cell, pinned[cell], port, outs) for stepper, cell, port, outs in entries)
            for line, entries in consumers.items()
        }),
        zero_delay=any(p.prop_delay_fs == 0 or p.prop_delay_out1_fs == 0 for p in pinned.values()),
    )


def _is_port(endpoint: str) -> bool:
    return "." in endpoint


def _split_port(endpoint: str) -> tuple[str, str]:
    cell, _, port = endpoint.partition(".")
    return cell, port


def _validate(net: Netlist) -> None:
    for name in net.cells:
        if "." in name:
            raise NetlistError(f"cell name {name!r} must not contain '.'")

    input_drivers: dict[tuple[str, str], str] = {}
    for conn in net.connections:
        for endpoint in (conn.src, conn.dst):
            if _is_port(endpoint):
                cell, port = _split_port(endpoint)
                if cell not in net.cells:
                    raise NetlistError(f"connection endpoint {endpoint!r} references unknown cell")
                kind = net.cells[cell].kind
                valid = INPUT_PORTS.get(kind, ()) + OUTPUT_PORTS.get(kind, ())
                if port not in valid:
                    raise NetlistError(f"cell {cell!r} ({kind.value}) has no port {port!r}")
        if _is_port(conn.src) and _is_port(conn.dst):
            raise NetlistError(f"{conn.src} -> {conn.dst}: cell ports must connect through a line")
        if _is_port(conn.dst):
            cell, port = _split_port(conn.dst)
            if port not in INPUT_PORTS[net.cells[cell].kind]:
                raise NetlistError(f"{conn.dst} is not an input port")
            if conn.delay_fs != 0 or conn.offset_schedule:
                raise NetlistError(f"{conn.src} -> {conn.dst}: line-to-port wiring must have zero delay")
            if (cell, port) in input_drivers:
                raise NetlistError(f"input port {conn.dst} has more than one driver")
            input_drivers[(cell, port)] = conn.src
        if _is_port(conn.src):
            cell, port = _split_port(conn.src)
            if port not in OUTPUT_PORTS[net.cells[cell].kind]:
                raise NetlistError(f"{conn.src} is not an output port")
        if not _is_port(conn.src) and not _is_port(conn.dst):
            if conn.delay_fs <= 0 and not conn.is_loop:
                raise NetlistError(f"line tap {conn.src} -> {conn.dst} needs a positive delay")
        starts = [s for s, _ in conn.offset_schedule]
        if starts != sorted(starts):
            raise NetlistError(f"{conn.src} -> {conn.dst}: offset schedule must be sorted by start time")

    # the only permitted cycle is through connections marked as the loop
    adjacency: dict[str, set[str]] = {}
    for conn in net.connections:
        if conn.is_loop:
            continue
        src = _split_port(conn.src)[0] if _is_port(conn.src) else conn.src
        dst = _split_port(conn.dst)[0] if _is_port(conn.dst) else conn.dst
        adjacency.setdefault(src, set()).add(dst)
    state: dict[str, int] = {}  # 1 = on stack, 2 = done

    def visit(node: str) -> None:
        state[node] = 1
        for nxt in sorted(adjacency.get(node, ())):
            if state.get(nxt) == 1:
                raise NetlistError(f"combinational cycle through {nxt!r}; only the storage loop may cycle")
            if state.get(nxt) is None:
                visit(nxt)
        state[node] = 2

    for node in sorted(adjacency):
        if state.get(node) is None:
            visit(node)


@dataclass(frozen=True)
class Trace:
    """Everything one run produced: pulses on observed lines + violations.

    ``events`` are in strictly increasing ``(time_fs, line)`` order: at most
    one pulse per line and instant, time ascending, ties by line name.
    """

    events: tuple[PulseEvent, ...]
    violations: tuple[TimingViolation, ...]
    observed: tuple[str, ...]
    t_end_fs: int
    bias: BiasPoint

    @property
    def failed(self) -> bool:
        return bool(self.violations)

    def pulses_on(self, line: str) -> tuple[int, ...]:
        if line not in self.observed:
            raise UnknownLineError(f"line {line!r} is not observed by this trace")
        return tuple(e.time_fs for e in self.events if e.line == line)


@dataclass
class PreparedRun:
    netlist: Netlist
    stimulus: tuple[PulseEvent, ...] = ()


def schedule(netlist: Netlist, stimulus: list[PulseEvent]) -> PreparedRun:
    """Load stimulus, rejecting pulses on undeclared lines and duplicates."""
    seen: set[tuple[int, str]] = set()
    for pulse in stimulus:
        if pulse.line not in netlist.external_inputs:
            raise UnknownLineError(f"line {pulse.line!r} is not a declared external input")
        key = (pulse.time_fs, pulse.line)
        if key in seen:
            raise DuplicatePulseError(f"duplicate pulse on {pulse.line!r} at {pulse.time_fs} fs")
        seen.add(key)
    return PreparedRun(netlist, tuple(sorted(stimulus, key=attrgetter("time_fs", "line"))))


def _tap_offset(schedule_: tuple[tuple[int, int], ...], t: int) -> int:
    if not schedule_:
        return 0
    idx = bisect_right(schedule_, (t, float("inf"))) - 1
    if idx < 0:
        return 0
    return schedule_[idx][1]


def run_until(prepared: PreparedRun, t_end_fs: int, bias: BiasPoint, max_events: int = 10_000_000) -> Trace:
    """Execute all events in [0, t_end_fs) and collect the trace.

    A bias outside a cell's electrical operating range records one
    ELECTRICAL violation for that cell at t=0 and evaluates its delays at
    the nearest range edge, so the trace remains collectible while the run
    is marked failed.
    """
    if t_end_fs < 0:
        raise ValueError("t_end must be non-negative")
    net = prepared.netlist
    pins = net.at_bias(bias)
    taps = net._wiring[1]
    states = {name: CellState() for name in net.cells}
    consumers = {
        line: [(stepper, cell, params, states[cell], port, outs) for stepper, cell, params, port, outs in entries]
        for line, entries in pins.consumers.items()
    }
    violations = list(pins.violations)

    heap: list[tuple[int, str, int]] = []
    seq = 0
    queued: set[tuple[int, str]] = set()

    def push(t: int, line: str) -> None:
        nonlocal seq
        key = (t, line)
        if key in queued:
            # two coincident pulses on one line merge into a single pulse
            # (the collision itself is reported by the emitting cell)
            return
        queued.add(key)
        heapq.heappush(heap, (t, line, seq))
        seq += 1
        if len(heap) > max_events:
            raise RunawayQueueError(f"event queue exceeded {max_events} events — runaway feedback")

    for pulse in prepared.stimulus:
        push(pulse.time_fs, pulse.line)

    observed_set = set(net.observed)
    recorded: list[PulseEvent] = []

    while heap:
        t, line, _ = heapq.heappop(heap)
        if t >= t_end_fs:
            break
        if line in observed_set:
            recorded.append(PulseEvent(t, line))
        for stepper, cell, params, state, port, outs in consumers.get(line, ()):
            emissions, cell_violations = stepper(cell, params, state, port, t)
            violations.extend(cell_violations)
            for out_port, t_out in emissions:
                target = outs.get(out_port)
                if target is not None:
                    push(t_out, target)
        for tap in taps.get(line, ()):
            arrival = t + tap.delay_fs + _tap_offset(tap.offset_schedule, t)
            if arrival <= t:
                raise FluxloopError(
                    f"tap {tap.src} -> {tap.dst}: effective delay must stay positive "
                    f"(got {arrival - t} fs at t={t})"
                )
            push(arrival, tap.dst)

    if pins.zero_delay:
        # a zero-delay emission can land at the current instant on a line
        # that sorts before the one just popped
        recorded.sort(key=attrgetter("time_fs", "line"))
    return Trace(
        events=tuple(recorded),
        violations=tuple(violations),
        observed=net.observed,
        t_end_fs=t_end_fs,
        bias=bias,
    )


def query_pulses(trace: Trace, line: str, t0: int, t1: int) -> tuple[int, ...]:
    """Pulse timestamps on ``line`` within the half-open window [t0, t1)."""
    if t0 >= t1:
        raise ValueError("query window must satisfy t0 < t1")
    return tuple(t for t in trace.pulses_on(line) if t0 <= t < t1)


# --- export ----------------------------------------------------------------

def trace_to_csv(trace: Trace) -> str:
    """Render a trace as CSV rows (time_fs, line, kind, detail).

    Violation rows carry the cell name in the line column and the violation
    kind as the detail prefix.  Rows are sorted by time, pulses before
    violations at equal times.
    """
    rows: list[tuple[int, int, str, str, str]] = []
    for event in trace.events:
        rows.append((event.time_fs, 0, event.line, "pulse", ""))
    for v in trace.violations:
        rows.append((v.time_fs, 1, v.cell, "violation", f"{v.kind.value}: {v.detail}"))
    rows.sort()
    lines = ["time_fs,line,kind,detail"]
    for time_fs, _, name, kind, detail in rows:
        if "," in detail or '"' in detail:
            detail = '"' + detail.replace('"', '""') + '"'
        lines.append(f"{time_fs},{name},{kind},{detail}")
    return "\n".join(lines) + "\n"


def trace_to_vcd(trace: Trace) -> str:
    """Render a trace as a VCD document (1 fs timescale, toggle per pulse)."""
    ids = {}
    for i, line in enumerate(trace.observed):
        if i >= 94:
            raise FluxloopError("too many observed lines for single-character VCD ids")
        ids[line] = chr(33 + i)
    out = [
        "$timescale 1fs $end",
        "$scope module fluxloop $end",
    ]
    for line in trace.observed:
        out.append(f"$var wire 1 {ids[line]} {line} $end")
    out.append("$upscope $end")
    out.append("$enddefinitions $end")

    level = {line: 0 for line in trace.observed}
    events = trace.events
    start = 0
    # events are (time, line)-ordered: the t=0 pulses set the initial levels
    while start < len(events) and events[start].time_fs == 0:
        level[events[start].line] = 1
        start += 1
    out.append("#0")
    out.extend(f"{level[line]}{ids[line]}" for line in trace.observed)
    t_prev = 0
    for event in events[start:]:
        if event.time_fs != t_prev:
            t_prev = event.time_fs
            out.append(f"#{t_prev}")
        line = event.line
        level[line] ^= 1
        out.append(f"{level[line]}{ids[line]}")
    return "\n".join(out) + "\n"
