"""The delay-line memory: controller netlist, addressing, and program runs.

The controller stitches five behavioral cells around one delayed loop
connection:

* ``write_dro``    — holds write_data until write_address releases it;
* ``recirc_dro2r`` — re-times recirculating data: ¬write_address forwards
  it back toward the loop, write_address discards it (overwrite);
* ``merger``       — joins freshly written and recirculating pulses;
* ``fanout``       — copies the merged stream to the loop input and to the
  readout clock;
* ``read_dro2r``   — holds read_address until the loop copy of that
  interval's bit clocks it out to read_data (¬read_address flushes it).

Addressing is temporally encoded and differential: each trip is a header
interval (write_data slot) followed by one interval per address, and in
every address interval exactly one of {write_address, ¬write_address} and
exactly one of {read_address, ¬read_address} fires.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass, fields
from functools import lru_cache, partial
from typing import Any, Callable, Mapping

from .cells import CellParams, _cell_set, _freeze, default_cell_params
from .core import BiasPoint, ConfigError, InfeasibleFrequencyError, PulseEvent, SimConfig, interval_duration, trip_duration
from .engine import Connection, Netlist, PinnedNetlist, RunawayQueueError, Trace, run_until, schedule

#: The externally driven lines.
INPUT_LINES = (
    "write_data",
    "write_address",
    "not_write_address",
    "read_address",
    "not_read_address",
)

#: The signals recorded in every trace (the memory's observable surface).
OBSERVED_LINES = INPUT_LINES + ("loop_data_in", "loop_data_out", "read_data")


@dataclass(frozen=True)
class TripOp:
    """One trip's worth of operations: at most one write, any set of reads."""

    write: tuple[int, int] | None = None  # (address, bit)
    reads: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.write is not None:
            addr, bit = self.write
            if addr < 0:
                raise ConfigError("write.addr", "address must be non-negative")
            if bit not in (0, 1):
                raise ConfigError("write.bit", "bit must be 0 or 1")
        for j, addr in enumerate(self.reads):
            if addr < 0:
                raise ConfigError(f"reads[{j}]", "addresses must be non-negative")
        if len(set(self.reads)) != len(self.reads):
            j = next(j for j, addr in enumerate(self.reads) if addr in self.reads[:j])
            raise ConfigError(f"reads[{j}]", "duplicate read address within a trip")


@dataclass(frozen=True)
class MemoryProgram:
    trips: tuple[TripOp, ...]

    def max_address(self) -> int:
        """The highest address any trip writes or reads (-1 for none)."""
        return max((a for op in self.trips for a in (*op.reads, *(op.write or ())[:1])), default=-1)


@dataclass(frozen=True)
class MemoryResult:
    """Decoded reads plus the full trace of one program run."""

    reads: dict[tuple[int, int], int]  # (trip, address) -> observed bit
    trace: Trace
    passed: bool

    def reads_by_trip(self) -> list[list[tuple[int, int]]]:
        by_trip: dict[int, list[tuple[int, int]]] = {}
        for (trip, addr), bit in sorted(self.reads.items()):
            by_trip.setdefault(trip, []).append((addr, bit))
        if not by_trip:
            return []
        return [by_trip.get(t, []) for t in range(max(by_trip) + 1)]


def parse_program(text: str) -> MemoryProgram:
    """Parse a program document: {"trips": [{"write": {"addr", "bit"}|null, "reads": [...]}]}."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("<program>", f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict) or "trips" not in doc:
        raise ConfigError("trips", "program document must contain a 'trips' list")
    raw_trips = doc["trips"]
    if not isinstance(raw_trips, list):
        raise ConfigError("trips", "expected a list")
    trips = []
    for i, raw in enumerate(raw_trips):
        if not isinstance(raw, dict):
            raise ConfigError(f"trips[{i}]", "expected an object")
        write = None
        if raw.get("write") is not None:
            w = raw["write"]
            if not isinstance(w, dict) or "addr" not in w or "bit" not in w:
                raise ConfigError(f"trips[{i}].write", "expected {'addr': ..., 'bit': ...}")
            write = (w["addr"], w["bit"])
            for key, value in zip(("addr", "bit"), write):
                if type(value) is not int:
                    raise _not_an_integer(f"trips[{i}].write.{key}", value)
        reads = raw.get("reads", [])
        if not isinstance(reads, list):
            raise ConfigError(f"trips[{i}].reads", "expected a list of addresses")
        for j, value in enumerate(reads):
            if type(value) is not int:
                raise _not_an_integer(f"trips[{i}].reads[{j}]", value)
        try:
            trips.append(TripOp(write=write, reads=tuple(reads)))
        except ConfigError as exc:
            raise ConfigError(f"trips[{i}].{exc.field}", exc.message) from None
    return MemoryProgram(trips=tuple(trips))


def _not_an_integer(field_name: str, value: Any) -> ConfigError:
    # JSON numbers decode to int or float, and true/false to bool (an int
    # subclass), so ``type(value) is not int`` rejects exactly the non-integers
    return ConfigError(field_name, f"expected an integer, got {json.dumps(value)}")


def serialize_program(program: MemoryProgram) -> str:
    doc = {
        "trips": [
            {
                "write": None if t.write is None else {"addr": t.write[0], "bit": t.write[1]},
                "reads": list(t.reads),
            }
            for t in program.trips
        ]
    }
    return json.dumps(doc, indent=2)


def _check_program(program: MemoryProgram, num_addresses: int) -> None:
    top = program.max_address()
    if top >= num_addresses:
        raise ConfigError(
            "program", f"address {top} out of range for num_addresses={num_addresses}"
        )


# --- timing helpers ---------------------------------------------------------

def phase_instants(cfg: SimConfig) -> tuple[int, int, int]:
    """(read, write, data) pulse offsets within an interval, in fs."""
    return _phase_instants(cfg, interval_duration(cfg))


def _phase_instants(cfg: SimConfig, interval: int) -> tuple[int, int, int]:
    # round_half_up(phase * interval) of each phase, in integer arithmetic
    return tuple(
        (2 * p.numerator * interval + p.denominator) // (2 * p.denominator)
        for p in (cfg.phase_read, cfg.phase_write, cfg.phase_data)
    )


def source_path_delays(cells: Mapping[str, CellParams]) -> tuple[int, int]:
    """Merged-path delay (to loop_data_in / read clock) from each source.

    Returns (write-sourced, recirculation-sourced) totals of the cells'
    constant delays: pass cells pinned at a bias (``Netlist.at_bias``), or
    the unpinned set for nominal, where every delay model equals
    ``prop_delay_fs``.
    """
    shared = cells["merger"].prop_delay_fs + cells["fanout"].prop_delay_fs
    return cells["write_dro"].prop_delay_fs + shared, cells["recirc_dro2r"].prop_delay_fs + shared


def required_loop_delay(cfg: SimConfig) -> int:
    """Loop delay that re-aligns each bit with its own interval next trip.

    The recirculated copy must reach the re-timing cell a setup window plus
    a guard before the complement clock of the same interval one trip
    later, so the loop absorbs a full trip minus the controller's nominal
    re-timing budget.
    """
    return _loop_delay(_retiming_budget(_cell_set(cfg.frozen_overrides)), cfg, trip_duration(cfg))


def _retiming_budget(cells: Mapping[str, CellParams]) -> int:
    """The re-timing budget before the guard: the recirculation path plus the re-timing cell's setup."""
    return source_path_delays(cells)[1] + cells["recirc_dro2r"].setup_fs


def _loop_delay(budget: int, cfg: SimConfig, trip: int) -> int:
    budget += cfg.retiming_guard_fs
    if budget >= trip:
        raise InfeasibleFrequencyError(
            f"controller re-timing budget {budget} fs does not fit in a "
            f"{trip} fs trip at {cfg.frequency_hz} Hz"
        )
    return trip - budget


#: SimConfig fields a run reads but the compiled controller does not.
_RUN_FIELDS = frozenset({"bias", "max_events", "search_ceiling_hz"})
#: The compiled fields but the cell overrides, which key by ``SimConfig.frozen_overrides``.
_COMPILED_FIELDS = tuple(f.name for f in fields(SimConfig) if f.name not in _RUN_FIELDS | {"cell_overrides"})


class _BiasFree:
    """A config that hashes and compares on every field but ``_RUN_FIELDS``."""

    __slots__ = ("cfg", "key")

    def __init__(self, cfg: SimConfig) -> None:
        self.cfg = cfg
        self.key = (cfg.frozen_overrides, *(_freeze(getattr(cfg, name)) for name in _COMPILED_FIELDS))

    def __hash__(self) -> int:
        return hash(self.key)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _BiasFree) and self.key == other.key


def build_controller(cfg: SimConfig) -> Netlist:
    """Assemble the controller netlist plus the storage-loop connection.

    Compiled (built and validated) once per bias-free configuration: configs
    that differ only in bias, event cap or search ceiling share one netlist,
    from a bounded cache.
    """
    return _compile(_BiasFree(cfg))


@lru_cache(maxsize=64)
def _compile(config: _BiasFree) -> Netlist:
    cfg = config.cfg
    # the cell set default_cell_params serves, read without a per-call copy
    cells = _cell_set(cfg.frozen_overrides)
    trip = trip_duration(cfg)
    loop_delay = cfg.loop_delay_fs if cfg.loop_delay_fs is not None else _loop_delay(_retiming_budget(cells), cfg, trip)
    offsets = tuple((t * trip, off) for t, off in enumerate(cfg.loop_jitter_fs))
    if offsets:
        offsets += ((len(cfg.loop_jitter_fs) * trip, 0),)

    connections = (
        Connection("write_data", "write_dro.data"),
        Connection("write_address", "write_dro.clock"),
        Connection("write_address", "recirc_dro2r.clock1"),
        Connection("not_write_address", "recirc_dro2r.clock0"),
        Connection("loop_data_out", "recirc_dro2r.data"),
        Connection("write_dro.out", "write_dro_out"),
        Connection("write_dro_out", "merger.in0"),
        Connection("recirc_dro2r.out0", "recirc_out"),
        Connection("recirc_out", "merger.in1"),
        Connection("recirc_dro2r.out1", "recirc_discard"),
        Connection("merger.out", "merged"),
        Connection("merged", "fanout.in"),
        Connection("fanout.out_a", "loop_data_in"),
        Connection("fanout.out_b", "read_clock"),
        Connection("read_clock", "read_dro2r.clock0"),
        Connection("loop_data_in", "loop_data_out", delay_fs=loop_delay, offset_schedule=offsets, is_loop=True),
        Connection("read_address", "read_dro2r.data"),
        Connection("not_read_address", "read_dro2r.clock1"),
        Connection("read_dro2r.out0", "read_data"),
        Connection("read_dro2r.out1", "read_discard"),
    )
    return Netlist(
        cells=cells,
        connections=connections,
        external_inputs=frozenset(INPUT_LINES),
        observed=OBSERVED_LINES,
    )


def _check_stimulus_size(program: MemoryProgram, cfg: SimConfig) -> None:
    """Raise ``RunawayQueueError`` if the program's stimulus alone exceeds
    ``cfg.max_events``, counted in closed form before any pulse is made."""
    ones = sum(1 for op in program.trips if op.write is not None and op.write[1] == 1)
    _check_pulse_count(2 * cfg.num_addresses * len(program.trips) + ones, cfg)


def _check_pulse_count(size: int, cfg: SimConfig) -> None:
    if size > cfg.max_events:
        raise RunawayQueueError(f"stimulus of {size} pulses exceeds the bound of {cfg.max_events} events")


def stimulus_for(program: MemoryProgram, cfg: SimConfig) -> list[PulseEvent]:
    """Temporally-encoded differential stimulus for a program.

    In every address interval exactly one of each complement pair fires;
    write_data appears in the header only for trips writing a 1.  Pulses
    come in time order (each interval's read before its write, as
    ``phase_read < phase_write``), so the sort in ``schedule`` only has to
    order pulses whose phases round to the same instant.  A program whose
    stimulus alone exceeds ``cfg.max_events`` raises ``RunawayQueueError``
    before any pulse is made.
    """
    _check_program(program, cfg.num_addresses)
    _check_stimulus_size(program, cfg)
    interval = interval_duration(cfg)
    trip = trip_duration(cfg)
    ph_read, ph_write, ph_data = phase_instants(cfg)
    header = cfg.header_intervals * interval

    # every instant is non-negative (SimConfig keeps the phases in [0, 1)),
    # so the pulses are made without PulseEvent's per-pulse check
    pulse = partial(tuple.__new__, PulseEvent)
    pulses: list[PulseEvent] = []
    for t, op in enumerate(program.trips):
        trip_start = t * trip
        if op.write is not None and op.write[1] == 1:
            pulses.append(pulse((trip_start + ph_data, "write_data")))
        reads = set(op.reads)
        for k in range(cfg.num_addresses):
            slot = trip_start + header + k * interval
            writing = op.write is not None and op.write[0] == k
            pulses.append(pulse((slot + ph_read, "read_address" if k in reads else "not_read_address")))
            pulses.append(pulse((slot + ph_write, "write_address" if writing else "not_write_address")))
    return pulses


def read_window_offset(pins: PinnedNetlist) -> int:
    """Offset from an interval's write instant to its read_data release.

    Read off the controller's cells pinned at the run's bias, as the engine
    runs them, so the decode window starts exactly where the release lands.
    """
    return min(source_path_delays(pins.cells)) + pins.cells["read_dro2r"].prop_delay_fs


def prepare_program(program: MemoryProgram, cfg: SimConfig) -> Callable[..., MemoryResult]:
    """Everything of a run that does not depend on bias (the controller, the
    scheduled stimulus, the end time and each read's decode slot), as a
    function ``run(bias, max_events=10_000_000)`` that simulates at ``bias``
    and decodes the reads from the read_data line.

    A read of address k in trip t reports 1 iff a read_data pulse lands in
    the one-interval window opening at that interval's release offset.
    """
    stimulus = stimulus_for(program, cfg)  # checks the program before the controller compiles
    prepared = schedule(build_controller(cfg), stimulus)
    interval = interval_duration(cfg)
    trip = trip_duration(cfg)
    t_end = (len(program.trips) + 2) * trip
    _, ph_write, _ = phase_instants(cfg)
    first = cfg.header_intervals * interval + ph_write
    # (trip, address, write instant of that read's interval), one per read
    read_slots = tuple(
        (t, k, t * trip + first + k * interval) for t, op in enumerate(program.trips) for k in op.reads
    )

    def run(bias: BiasPoint, max_events: int = 10_000_000) -> MemoryResult:
        trace = run_until(prepared, t_end, bias, max_events)
        offset = read_window_offset(prepared.netlist.at_bias(bias))
        read_times = trace.pulses_on("read_data")  # in time order
        reads: dict[tuple[int, int], int] = {}
        for t, k, write_at in read_slots:
            w0 = write_at + offset
            i = bisect_left(read_times, w0)
            reads[(t, k)] = 1 if i < len(read_times) and read_times[i] < w0 + interval else 0
        return MemoryResult(reads=reads, trace=trace, passed=not trace.failed)

    return run


def run_program(program: MemoryProgram, cfg: SimConfig) -> MemoryResult:
    """Simulate a program at the config's bias and decode its reads
    (see :func:`prepare_program`)."""
    return prepare_program(program, cfg)(cfg.bias, cfg.max_events)


def oracle(program: MemoryProgram, num_addresses: int) -> dict[tuple[int, int], int]:
    """Abstract-array reference semantics: writes apply before same-trip reads."""
    _check_program(program, num_addresses)
    bits = [0] * num_addresses
    expected: dict[tuple[int, int], int] = {}
    for t, op in enumerate(program.trips):
        if op.write is not None:
            addr, bit = op.write
            bits[addr] = bit
        for k in op.reads:
            expected[(t, k)] = bits[k]
    return expected


def pulse_spacing(velocity_mps: float, frequency_hz: float) -> float:
    """Physical distance between adjacent circulating bits (meters)."""
    if velocity_mps <= 0 or frequency_hz <= 0:
        raise ValueError("velocity and frequency must be positive")
    return velocity_mps / frequency_hz


# --- canned scenarios -------------------------------------------------------

def scenario_write_read(address: int = 1, trips: int = 3) -> MemoryProgram:
    """Write a 1, then read it back every trip (non-destructive readout)."""
    ops = [TripOp(write=(address, 1), reads=(address,))]
    ops += [TripOp(reads=(address,)) for _ in range(trips - 1)]
    return MemoryProgram(trips=tuple(ops))


def scenario_overwrite(address: int = 1) -> MemoryProgram:
    """Write a 1, overwrite it with 0 next trip, then confirm it is gone."""
    return MemoryProgram(
        trips=(
            TripOp(write=(address, 1), reads=(address,)),
            TripOp(write=(address, 0)),
            TripOp(reads=(address,)),
            TripOp(),
        )
    )


def scenario_address_sweep(num_addresses: int) -> MemoryProgram:
    """Write a 1 to every address in turn, from the last down, then read
    them all back in one trip.

    Each writing trip reads back its own address and, after the first, the
    one written the trip before, so a fresh write's read clock races the
    next interval's read_address: the write-sourced read hold that ``sta``
    checks, which no other default scenario exercises.
    """
    top = num_addresses - 1
    ops = [TripOp(write=(a, 1), reads=(a, a + 1) if a < top else (a,)) for a in range(top, -1, -1)]
    ops.append(TripOp(reads=tuple(range(num_addresses))))
    return MemoryProgram(trips=tuple(ops))


def default_margin_suite(cfg: SimConfig) -> tuple[MemoryProgram, ...]:
    """The scenarios ``bias_margin`` runs by default.  An address sweep whose
    stimulus would exceed ``cfg.max_events`` raises ``RunawayQueueError``
    before it is built."""
    n = cfg.num_addresses
    _check_pulse_count(2 * n * (n + 1) + n, cfg)  # n + 1 trips, n writes of a 1
    address = min(1, n - 1)
    return (
        scenario_write_read(address=address),
        scenario_overwrite(address=address),
        scenario_address_sweep(n),
    )


# --- loop jitter ------------------------------------------------------------

@dataclass(frozen=True)
class JitterWindow:
    """Tolerated per-trip loop-delay error, and where excess is detectable.

    Within [lo_fs, hi_fs] the re-timing clock fully absorbs the error:
    loop_data_in times are unchanged.  In the adjacent detectable bands a
    SETUP or HOLD violation is guaranteed at the re-timing cell.  Beyond
    those bands the bit aliases into a neighboring interval slot, which no
    local timing check can see — inherent to any delay-line store.
    """

    lo_fs: int
    hi_fs: int
    detect_below: tuple[int, int]
    detect_above: tuple[int, int]


def jitter_tolerance(cfg: SimConfig) -> JitterWindow:
    """Compute the re-timing tolerance window at nominal bias.

    The recirculated bit arrives (setup + guard) before its re-timing
    clock, so positive jitter up to the guard keeps the setup check whole;
    negative jitter is bounded by the hold check against the previous
    interval's clock.
    """
    retimer = default_cell_params(cfg.cell_overrides)["recirc_dro2r"]
    setup, hold, guard = retimer.setup_fs, retimer.hold_fs, cfg.retiming_guard_fs
    hi = guard
    lo = -(interval_duration(cfg) - setup - guard - hold)
    if lo > 0:
        raise InfeasibleFrequencyError(
            "no re-timing slack at this frequency: the interval is shorter "
            "than the cell's setup/hold budget plus guard"
        )
    return JitterWindow(
        lo_fs=lo,
        hi_fs=hi,
        detect_below=(lo - setup - hold + 1, lo - 1),
        detect_above=(hi + 1, hi + setup + hold - 1),
    )
