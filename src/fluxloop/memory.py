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
from collections import namedtuple
from collections.abc import Callable, Iterator, Mapping
from fractions import Fraction
from functools import lru_cache
from itertools import repeat

from .cells import CellParams, _cell_set
from .cells import default_cell_params  # unused here; perfbench's tracer and self-test expect memory.default_cell_params
from .core import (
    ConfigError, InfeasibleFrequencyError, SimConfig, interval_duration, load_json, trip_duration, validated_record,
)
from .engine import Connection, Netlist, PinnedNetlist, PreparedRun, RunawayQueueError, run_until

#: The externally driven lines.
INPUT_LINES = ("write_data", "write_address", "not_write_address", "read_address", "not_read_address")

#: The signals recorded in every trace (the memory's observable surface).
OBSERVED_LINES = INPUT_LINES + ("loop_data_in", "loop_data_out", "read_data")


class TripOp(validated_record("TripOp", "write reads")):
    """One trip's worth of operations: at most one write, as an (address,
    bit) pair, and any set of reads."""

    __slots__ = ()

    def __new__(cls, write: tuple[int, int] | None = None, reads: tuple[int, ...] = ()) -> "TripOp":
        if write is not None:
            addr, bit = write
            if addr < 0:
                raise ConfigError("write.addr", "address must be non-negative")
            if bit not in (0, 1):
                raise ConfigError("write.bit", "bit must be 0 or 1")
        if reads and min(reads) < 0:  # a C-level pass; the walk names the first negative
            j = next(j for j, addr in enumerate(reads) if addr < 0)
            raise ConfigError(f"reads[{j}]", "addresses must be non-negative")
        if len(set(reads)) != len(reads):  # the first repeat, in one pass
            seen = set()
            j = next(j for j, addr in enumerate(reads) if addr in seen or seen.add(addr))
            raise ConfigError(f"reads[{j}]", "duplicate read address within a trip")
        return tuple.__new__(cls, (write, reads))


class MemoryProgram(namedtuple("MemoryProgram", "trips")):
    __slots__ = ()

    def max_address(self) -> int:
        """The highest address any trip writes or reads (-1 for none)."""
        return max((a for op in self.trips for a in (*op.reads, *(op.write or ())[:1])), default=-1)


class MemoryResult(namedtuple("MemoryResult", "reads trace passed")):
    """Decoded reads plus the full trace of one program run: ``reads`` maps
    (trip, address) to the observed bit, ``trace`` is the run's
    :class:`~fluxloop.engine.Trace`, and ``passed`` says whether it passed."""

    __slots__ = ()


def parse_program(text: str) -> MemoryProgram:
    """Parse a program document: {"trips": [{"write": {"addr", "bit"}|null, "reads": [...]}]}."""
    doc = load_json(text, "<program>")
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
        if not {int}.issuperset(map(type, reads)):  # a C-level pass; the walk names the first non-integer
            j = next(j for j, value in enumerate(reads) if type(value) is not int)
            raise _not_an_integer(f"trips[{i}].reads[{j}]", reads[j])
        try:
            trips.append(TripOp(write=write, reads=tuple(reads)))
        except ConfigError as exc:
            raise ConfigError(f"trips[{i}].{exc.field}", exc.message) from None
    return MemoryProgram(trips=tuple(trips))


def _not_an_integer(field_name: str, value: object) -> ConfigError:
    # JSON numbers decode to int or float, and true/false to bool (an int
    # subclass), so ``type(value) is not int`` rejects exactly the non-integers
    return ConfigError(field_name, f"expected an integer, got {json.dumps(value)}")


def _check_program(program: MemoryProgram, num_addresses: int) -> None:
    top = program.max_address()
    if top >= num_addresses:
        raise ConfigError("program", f"address {top} out of range for num_addresses={num_addresses}")


# --- timing helpers ---------------------------------------------------------

def phase_instants(cfg: SimConfig) -> tuple[int, int, int]:
    """(read, write, data) pulse offsets within an interval, in fs."""
    return _phase_instants(cfg, interval_duration(cfg))


def _phase_instants(cfg: SimConfig, interval: int) -> tuple[int, int, int]:
    # round_half_up(phase * interval) of each phase, in integer arithmetic
    read, read_den = cfg.phase_read.as_integer_ratio()
    write, write_den = cfg.phase_write.as_integer_ratio()
    data, data_den = cfg.phase_data.as_integer_ratio()
    twice = 2 * interval
    return (
        (twice * read + read_den) // (2 * read_den),
        (twice * write + write_den) // (2 * write_den),
        (twice * data + data_den) // (2 * data_den),
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


#: A trip too short for the re-timing budget, guard included: (budget, trip, frequency), formatted when read.
BUDGET_MISS = "controller re-timing budget %s fs does not fit in a %s fs trip at %s Hz"


def required_loop_delay(cfg: SimConfig) -> int:
    """Loop delay that re-aligns each bit with its own interval next trip.

    The recirculated copy must reach the re-timing cell a setup window plus
    a guard before the complement clock of the same interval one trip
    later, so the loop absorbs a full trip minus the controller's nominal
    re-timing budget.
    """
    budget = _retiming_budget(_cell_set(cfg.frozen_overrides)) + cfg.retiming_guard_fs
    if budget >= (trip := trip_duration(cfg)):
        raise InfeasibleFrequencyError(BUDGET_MISS, budget, trip, cfg.frequency_hz)
    return trip - budget


def _retiming_budget(cells: Mapping[str, CellParams]) -> int:
    """The re-timing budget before the guard: the recirculation path plus the re-timing cell's setup."""
    return source_path_delays(cells)[1] + cells["recirc_dro2r"].setup_fs


def build_controller(cfg: SimConfig) -> Netlist:
    """Assemble the controller netlist plus the storage-loop connection.

    Compiled (built and validated) once per value of what it reads: the
    cell overrides, the trip (the frequency, address count and header
    intervals make), the loop delay (given, or ``required_loop_delay``) and
    the loop jitter.  Configs that differ only in another field (bias,
    phases, event cap, search ceiling) share one netlist, from a bounded cache.
    """
    loop_delay = required_loop_delay(cfg) if cfg.loop_delay_fs is None else cfg.loop_delay_fs
    for t, off in enumerate(cfg.loop_jitter_fs):
        if loop_delay + off <= 0:  # a given loop delay is at fault, a derived one its frequency
            fault = f"makes trip {t}'s loop delay {loop_delay + off} fs; it must stay positive"
            if cfg.loop_delay_fs is None:
                raise InfeasibleFrequencyError(f"loop_jitter[{t}]: at {cfg.frequency_hz} Hz it {fault}")
            raise ConfigError(f"loop_jitter[{t}]", fault)
    return _compile(cfg.frozen_overrides, trip_duration(cfg), loop_delay, cfg.loop_jitter_fs)


@lru_cache(maxsize=64)
def _compile(frozen_overrides: tuple, trip: int, loop_delay: int, jitter: tuple[int, ...]) -> Netlist:
    cells = _cell_set(frozen_overrides)  # the cell set default_cell_params serves, read without a per-call copy
    offsets = tuple((t * trip, off) for t, off in enumerate(jitter))
    if offsets:
        offsets += ((len(jitter) * trip, 0),)
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
        Connection("loop_data_in", "loop_data_out", delay_fs=loop_delay, offset_schedule=offsets),
        Connection("read_address", "read_dro2r.data"),
        Connection("not_read_address", "read_dro2r.clock1"),
        Connection("read_dro2r.out0", "read_data"),
        Connection("read_dro2r.out1", "read_discard"),
    )
    return Netlist(cells, connections, frozenset(INPUT_LINES), OBSERVED_LINES)


def _check_stimulus_size(program: MemoryProgram, cfg: SimConfig) -> None:
    """Raise ``RunawayQueueError`` if the program's stimulus alone exceeds
    ``cfg.max_events``, counted in closed form before any pulse is made."""
    ones = sum(1 for op in program.trips if op.write is not None and op.write[1] == 1)
    _check_pulse_count(2 * cfg.num_addresses * len(program.trips) + ones, cfg)


def _check_pulse_count(size: int, cfg: SimConfig) -> None:
    if size > cfg.max_events:
        raise RunawayQueueError(f"stimulus of {size} pulses exceeds the bound of {cfg.max_events} events")


def _stimulus_keys(program: MemoryProgram, cfg: SimConfig, lines: tuple[str, ...]) -> tuple[int, ...]:
    """A checked program's stimulus as kernel keys ``t * len(lines) + r`` for
    a pulse at t on ``lines[r]`` (see ``engine.Trace``), sorted once, in place.

    In every address interval exactly one of each complement pair fires;
    write_data appears in the header only for trips writing a 1.  So the keys
    pass ``PreparedRun``'s checks unrun: each rank is an input's, and each
    line pulses at most once per trip (write_data) or per in-range address
    interval (a pair; ``TripOp`` keeps reads distinct), at one phase offset
    in [0, interval] past its start, so no key is negative or repeated.
    """
    if not program.trips:  # the size check bounds the quiet row below only through the trips
        return ()
    n, rank = len(lines), lines.index
    interval, trip = interval_duration(cfg), trip_duration(cfg) * n
    ph_read, ph_write, ph_data = phase_instants(cfg)
    # a trip that writes and reads nothing, from its start: a read or a write
    # moves the key of its interval's complement pulse onto the true line
    quiet = []
    for k in range(cfg.num_addresses):
        slot = (cfg.header_intervals + k) * interval
        quiet += ((slot + ph_read) * n + rank("not_read_address"), (slot + ph_write) * n + rank("not_write_address"))
    to_read, to_write = rank("read_address") - rank("not_read_address"), rank("write_address") - rank("not_write_address")
    data = ph_data * n + rank("write_data")
    keys: list[int] = []
    for t, op in enumerate(program.trips):
        start = t * trip
        row = list(map(start.__add__, quiet))
        for k in op.reads:
            row[2 * k] += to_read
        if op.write is not None:
            row[2 * op.write[0] + 1] += to_write
            if op.write[1] == 1:
                keys.append(start + data)
        keys += row
    keys.sort()
    return tuple(keys)


def stimulus_for(program: MemoryProgram, cfg: SimConfig) -> list[tuple[int, str]]:
    """The program's stimulus as ``(time_fs, line)`` pairs, in that order: the pulses
    ``prepare_program`` runs.  One over ``cfg.max_events`` raises ``RunawayQueueError``
    before any pulse is made."""
    _check_program(program, cfg.num_addresses)
    _check_stimulus_size(program, cfg)
    lines = tuple(sorted(INPUT_LINES))
    return [(t, lines[r]) for t, r in map(divmod, _stimulus_keys(program, cfg, lines), repeat(len(lines)))]


@lru_cache(maxsize=256)  # per pinned netlist: the runs of a sweep at one bias share theirs (engine._pin)
def read_window_offset(pins: PinnedNetlist) -> int:
    """Offset from an interval's write instant to its read_data release.

    Read off the controller's cells pinned at the run's bias, as the engine
    runs them, so the decode window starts exactly where the release lands.
    """
    return min(source_path_delays(pins.cells)) + pins.cells["read_dro2r"].prop_delay_fs


def prepare_program(program: MemoryProgram, cfg: SimConfig) -> Callable[[Fraction], MemoryResult]:
    """Everything of a run that does not depend on bias (the controller, the
    scheduled stimulus, the end time and each read's decode slot), as a
    function ``run(bias)`` that simulates at ``bias``, bounded by
    ``cfg.max_events``, and decodes the reads from the read_data line.

    A read of address k in trip t reports 1 iff a read_data pulse lands in
    the one-interval window opening at that interval's release offset.
    """
    _check_program(program, cfg.num_addresses)  # the program and its size before the controller compiles
    _check_stimulus_size(program, cfg)
    net = build_controller(cfg)
    prepared = tuple.__new__(PreparedRun, (net, _stimulus_keys(program, cfg, net.lines)))  # unchecked: see _stimulus_keys
    interval, trip = interval_duration(cfg), trip_duration(cfg)
    t_end = (len(program.trips) + 2) * trip
    first = cfg.header_intervals * interval + phase_instants(cfg)[1]  # the first address interval's write instant
    n, r = len(net.lines), net.lines.index("read_data")  # a read_data pulse at t is keyed t * n + r
    # each read's (trip, address), and the key of a read_data pulse at that read's interval's write instant
    slots = tuple((t, k) for t, op in enumerate(program.trips) for k in op.reads)
    bases = tuple((t * trip + first + k * interval) * n + r for t, k in slots)
    span = interval * n - r  # a window's first key to the first key of the interval after it

    def run(bias: Fraction) -> MemoryResult:
        trace = run_until(prepared, t_end, bias, cfg.max_events)
        shift, keys, size, reads = read_window_offset(prepared.netlist.at_bias(bias)) * n, trace.keys, len(trace.keys), {}
        for slot, base in zip(slots, bases):  # walk the window's keys, in (time, line) order, from its first read_data key
            start = base + shift
            i, stop = bisect_left(keys, start), start + span
            while i < size and keys[i] < stop and keys[i] % n != r:
                i += 1
            reads[slot] = 1 if i < size and keys[i] < stop else 0
        return tuple.__new__(MemoryResult, (reads, trace, not trace.violations))  # as MemoryResult(...) builds it

    return run


def run_program(program: MemoryProgram, cfg: SimConfig) -> MemoryResult:
    """Simulate a program at the config's bias and decode its reads
    (see :func:`prepare_program`)."""
    return prepare_program(program, cfg)(cfg.bias)


def oracle(program: MemoryProgram, num_addresses: int) -> dict[tuple[int, int], int]:
    """Abstract-array reference semantics: writes apply before same-trip reads."""
    return {(t, k): bit for t, k, bit in oracle_reads(program, num_addresses)}


def oracle_reads(program: MemoryProgram, num_addresses: int) -> Iterator[tuple[int, int, int]]:
    """:func:`oracle`'s reads one at a time, as (trip, address, bit) in
    (trip, address) order."""
    _check_program(program, num_addresses)
    bits = {}  # the written bits alone: the address count is not bounded by the program
    for t, op in enumerate(program.trips):
        if op.write is not None:
            addr, bit = op.write
            bits[addr] = bit
        for k in sorted(op.reads):
            yield t, k, bits.get(k, 0)


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
    address, every = min(1, n - 1), tuple(range(n))
    return (  # the write/read trips read every address: a bit that aliases into another is read there
        MemoryProgram((TripOp(write=(address, 1), reads=every), TripOp(reads=every), TripOp(reads=every))),
        scenario_overwrite(address=address),
        scenario_address_sweep(n),
    )
