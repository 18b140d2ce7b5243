"""Deterministic discrete-event kernel.

A netlist joins cell instances through named signal lines.  Pulses are
events on lines; a cell consumes the lines wired to its input ports and
emits onto the lines wired to its outputs.  Two connection shapes exist:

* line -> cell port  — zero-delay wiring (the cell steps synchronously
  when the line pulses);
* line -> line       — a delayed tap; the storage loop is the one delayed,
  cyclic connection in the controller.  A tap may carry a piecewise
  schedule of extra delay offsets (per-trip loop jitter).

Events at equal timestamps are ordered by line name, and at most one pulse
exists per line and instant, so reruns of an identical (netlist, stimulus,
bias) triple produce bit-identical traces.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import namedtuple
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from heapq import heappop, heappush
from io import StringIO
from itertools import compress, cycle, repeat
from operator import eq
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, NamedTuple, TextIO

from .core import BiasPoint, FluxloopError, PulseEvent, format_ratio, validated_record
from .cells import INPUT_PORTS, OUTPUT_PORTS, RELEASES, CellKind, CellParams, PinnedCell, TimingViolation, ViolationKind


class NetlistError(FluxloopError):
    """The netlist is structurally invalid."""


class UnknownLineError(FluxloopError):
    pass


class DuplicatePulseError(FluxloopError):
    pass


class RunawayQueueError(FluxloopError):
    """Event queue grew past its bound — runaway feedback."""


class Connection(NamedTuple):
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


class Netlist(validated_record("Netlist", "cells connections external_inputs observed")):
    """Cells wired by connections.

    ``cells`` is a read-only copy of the mapping given, since one netlist may
    serve many callers (``memory.build_controller`` memoizes).  The wiring is
    resolved once per netlist and each bias's pinned cells once per bias
    (:meth:`at_bias`), so a run only builds its per-slot tables and fresh
    cell states.
    """

    # no __slots__: the instance dict holds the cached wiring and pinned cells

    def __new__(cls, cells: Mapping[str, CellParams], connections: tuple[Connection, ...],
                external_inputs: frozenset[str], observed: tuple[str, ...]) -> "Netlist":
        net = tuple.__new__(cls, (MappingProxyType(dict(cells)), connections, external_inputs, observed))
        _validate(net)
        return net

    def __reduce__(self) -> tuple:
        """Pickle and copy through the constructor, leaving the cached wiring and pins behind."""
        return type(self), (dict(self.cells), self.connections, self.external_inputs, self.observed)

    @cached_property
    def _wiring(self) -> tuple[tuple[str, ...], dict[str, int], tuple[tuple, ...], tuple[tuple, ...], tuple]:
        """(every line a pulse can land on, by name; each external input's
        rank there; each rank's route as wired; the same folded; the folds).
        The kernel keys a pulse at t on the line of rank r as
        ``t * len(lines) + r``, so int order is (time, line) order.  A route
        is (observed?, its consumers as (``_transition``, targets), its taps as
        (delay, offset schedule, destination rank)).  A target is (delay
        entry, destination rank minus this line's): a release lands at
        ``key + delays[entry] + offset``, a run's delays being each cell's
        times the line count by slot, then each fold's (driver, fanout) sum.
        Folded, a release onto a dead line (unobserved, untapped, read by no
        cell) is dropped, and one onto a fanout-only line (internal,
        unobserved, untapped, read by one FANOUT alone) lands on the fanout's
        outputs after both delays.  An output nothing drives is dropped."""
        driven = {conn.dst for conn in self.connections if not _is_port(conn.dst)}
        lines = tuple(sorted(driven | self.external_inputs))
        rank = {line: r for r, line in enumerate(lines)}
        ports_on: dict[str, list[tuple[str, str]]] = {}
        taps: dict[str, list[tuple]] = {}
        outs: dict[str, dict[str, int]] = {name: {} for name in self.cells}
        for conn in self.connections:
            if _is_port(conn.dst):
                ports_on.setdefault(conn.src, []).append(_split_port(conn.dst))
            elif _is_port(conn.src):
                cell, port = _split_port(conn.src)
                outs[cell][port] = rank[conn.dst]
            else:
                taps.setdefault(conn.src, []).append((conn.delay_fs, conn.offset_schedule, rank[conn.dst]))
        slot = {name: i for i, name in enumerate(_slot_order(self.cells))}
        dead, fanout_of = set(), {}  # by rank: the dead lines, and each fanout-only line's (fanout, port)
        for line in set(lines) - set(self.observed) - taps.keys():
            ports = ports_on.get(line, ())
            if not ports:
                dead.add(rank[line])
            elif len(ports) == 1 and line not in self.external_inputs and self.cells[ports[0][0]].kind is CellKind.FANOUT:
                fanout_of[rank[line]] = ports[0]
        folds: dict[tuple[int, int], int] = {}  # (driver slot, fanout slot) -> its delay entry

        def released(cell: str, port: str) -> list[int]:
            return [outs[cell][out] for out in RELEASES[self.cells[cell].kind][port] if out in outs[cell]]

        def targets(cell: str, port: str, here: int, fold: bool) -> tuple[tuple[int, int], ...]:
            out = []
            for dst in released(cell, port):
                if fold and dst in fanout_of:
                    fanout, fanout_port = fanout_of[dst]
                    entry = folds.setdefault((slot[cell], slot[fanout]), len(self.cells) + len(folds))
                    out += [(entry, r - here) for r in released(fanout, fanout_port) if r not in dead]
                elif not (fold and dst in dead):
                    out.append((slot[cell], dst - here))
            return tuple(out)

        def route(line: str, fold: bool) -> tuple:
            consumers = tuple((*_transition(cell, self.cells[cell], port, slot[cell]), targets(cell, port, rank[line], fold))
                              for cell, port in sorted(ports_on.get(line, ())))
            return line in self.observed, consumers, tuple(taps.get(line, ()))

        routes, folded = (tuple(route(line, fold) for line in lines) for fold in (False, True))
        return lines, {line: rank[line] for line in self.external_inputs}, routes, folded, tuple(folds)

    @property
    def lines(self) -> tuple[str, ...]:
        """Every line a pulse can land on, by name: the table kernel keys rank lines in."""
        return self._wiring[0]

    # Bounded: a margin search visits at most 101 ratios per netlist.
    @cached_property
    def _pinned(self) -> Callable[[int, int], "PinnedNetlist"]:
        return lru_cache(maxsize=128)(partial(_pin, self.cells))

    def at_bias(self, bias: BiasPoint) -> "PinnedNetlist":
        """Every cell pinned at the bias it runs at (cached per bias ratio,
        keyed on its integers: a hit hashes no Fraction)."""
        return self._pinned(*bias.ratio.as_integer_ratio())


class PinnedNetlist:
    """A netlist's cells at one bias: constant delays, and the t=0
    ELECTRICAL violations of cells whose range excludes the bias.  It holds
    no run state: a run brings its own."""

    # A slotted class, like PinnedCell: cheaper than a NamedTuple to define
    # at every CLI start.
    __slots__ = ("cells", "violations", "zero_delay")

    def __init__(self, cells: Mapping[str, PinnedCell], violations: tuple[TimingViolation, ...], zero_delay: bool) -> None:
        self.cells = cells
        self.violations = violations
        #: a zero pinned delay can emit at the current instant (see run_until)
        self.zero_delay = zero_delay


def _slot_order(cells: Mapping[str, CellParams]) -> list[str]:
    """The cells' names in slot order: the order ``_pin`` pins them in (so
    ELECTRICAL violations come in name order) and ``_wiring``'s slots index."""
    return sorted(cells)


#: The transition an arrival applies (see ``cells``), as a consumer's first field.
_PASS, _MERGE, _STORE, _RELEASE = range(4)

#: A ``last`` entry before the first arrival it records: no window reaches back to it.
_NEVER = float("-inf")


def _transition(cell: str, params: CellParams, port: str, slot: int) -> tuple:
    """What a pulse into ``port`` of ``cell`` applies: (transition, the cell's
    slot, the entries of a run's ``last`` table it sets and checks (a cell
    has two: data and clock, or in0 and in1), its window (no window varies
    with bias), and a violation's (cell, kind, text around the gap))."""
    kind = params.kind
    if kind is CellKind.FANOUT:
        return _PASS, slot, 0, 0, 0, None
    first = port == INPUT_PORTS[kind][0]  # data, or in0
    mine, peer = 2 * slot + (not first), 2 * slot + first
    if kind is CellKind.MERGER:
        separation = params.min_separation_fs
        return _MERGE, slot, mine, peer, separation, (
            cell, ViolationKind.ELECTRICAL, "inputs ", f" fs apart (min separation {separation} fs)")
    if first:
        return _STORE, slot, mine, peer, params.hold_fs, (
            cell, ViolationKind.HOLD, "data ", f" fs after clock (hold {params.hold_fs} fs)")
    return _RELEASE, slot, mine, peer, params.setup_fs, (
        cell, ViolationKind.SETUP, f"{port} ", f" fs after data (setup {params.setup_fs} fs)")


def _pin(cells: Mapping[str, CellParams], num: int, den: int) -> PinnedNetlist:
    ratio = Fraction(num, den)
    bias = BiasPoint(ratio)
    violations, pinned = [], {}
    for name in _slot_order(cells):
        params = cells[name]
        rng = params.operating_range()
        at = bias
        if rng is not None and not (rng[0] <= ratio <= rng[1]):
            detail = f"bias {format_ratio(ratio)} outside operating range [{format_ratio(rng[0])}, {format_ratio(rng[1])}]"
            violations.append(TimingViolation(name, ViolationKind.ELECTRICAL, 0, detail))
            at = BiasPoint(rng[0] if ratio < rng[0] else rng[1])  # the cell runs saturated at the range edge
        pinned[name] = params.at_bias(at)
    return PinnedNetlist(MappingProxyType(pinned), tuple(violations), any(p.prop_delay_fs == 0 for p in pinned.values()))


def _is_port(endpoint: str) -> bool:
    return "." in endpoint


def _split_port(endpoint: str) -> tuple[str, str]:
    cell, _, port = endpoint.partition(".")
    return cell, port


def _validate(net: Netlist) -> None:
    for name, params in net.cells.items():
        if "." in name:
            raise NetlistError(f"cell name {name!r} must not contain '.'")
        if params.kind not in INPUT_PORTS:
            raise NetlistError(f"cell {name!r}: kind {params.kind!r} does not process pulses")

    wired: set[str] = set()  # the cell ports joined to a line so far: each joins one
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
            if conn.dst in wired:
                raise NetlistError(f"input port {conn.dst} has more than one driver")
            wired.add(conn.dst)
        elif _is_port(conn.src):
            cell, port = _split_port(conn.src)
            if port not in OUTPUT_PORTS[net.cells[cell].kind]:
                raise NetlistError(f"{conn.src} is not an output port")
            if conn.src in wired:
                raise NetlistError(f"output port {conn.src} drives more than one line")
            wired.add(conn.src)
        elif conn.delay_fs <= 0 and not conn.is_loop:
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


class Trace(namedtuple("Trace", "keys lines violations observed t_end_fs bias")):
    """Everything one run produced: pulses on observed lines + violations.

    ``keys`` holds each pulse as the kernel keys it: ``t * len(lines) + r``
    for a pulse at t on ``lines[r]``, ``lines`` being the netlist's sorted
    line table (:attr:`Netlist.lines`).  The keys ascend, so the pulses come
    in strictly increasing ``(time_fs, line)`` order: at most one pulse per
    line and instant.  ``events`` is the same pulses as ``PulseEvent``s,
    derived on first read and kept; :meth:`from_events` builds a trace by hand.
    """

    # no __slots__: the instance dict keeps ``events`` once derived

    @cached_property
    def events(self) -> tuple[PulseEvent, ...]:
        lines = self.lines
        return tuple([tuple.__new__(PulseEvent, (t, lines[r])) for t, r in map(divmod, self.keys, repeat(len(lines)))])

    @classmethod
    def from_events(cls, events: Iterable[PulseEvent], violations: Iterable[TimingViolation], observed: tuple[str, ...],
                    t_end_fs: int, bias: BiasPoint) -> "Trace":
        """A trace built by hand from ``PulseEvent``s on observed lines; a
        pulse on any other line raises ``UnknownLineError``."""
        lines = tuple(sorted(observed))
        rank = {line: r for r, line in enumerate(lines)}
        try:
            keys = sorted(t * len(lines) + rank[line] for t, line in events)
        except KeyError as exc:
            raise UnknownLineError(f"line {exc.args[0]!r} is not observed by this trace") from None
        return cls(tuple(keys), lines, tuple(violations), tuple(observed), t_end_fs, bias)

    @property
    def failed(self) -> bool:
        return bool(self.violations)

    def pulses_on(self, line: str) -> tuple[int, ...]:
        if line not in self.observed:
            raise UnknownLineError(f"line {line!r} is not observed by this trace")
        n = len(self.lines)
        rank = self.lines.index(line) if line in self.lines else None  # an observed line nothing drives
        return tuple([k // n for k in self.keys if k % n == rank])


class PreparedRun(validated_record("PreparedRun", "netlist keys")):
    """A netlist and its stimulus as kernel keys on its external inputs
    (see :class:`Trace`), sorted here; a duplicate pulse is refused.
    ``schedule`` makes one from ``PulseEvent``s."""

    __slots__ = ()

    def __new__(cls, netlist: Netlist, keys: Iterable[int] = ()) -> "PreparedRun":
        keys = sorted(keys)
        # sorted, so a duplicate sits just before its equal
        duplicate = next(compress(keys, map(eq, keys, keys[1:])), None)
        if duplicate is not None:
            t, rank = divmod(duplicate, len(netlist.lines))
            raise DuplicatePulseError(f"duplicate pulse on {netlist.lines[rank]!r} at {t} fs")
        return tuple.__new__(cls, (netlist, tuple(keys)))


def schedule(netlist: Netlist, stimulus: Iterable[PulseEvent]) -> PreparedRun:
    """Load stimulus, rejecting pulses on undeclared lines and duplicates."""
    inputs, n = netlist._wiring[1], len(netlist.lines)
    try:
        keys = [t * n + inputs[line] for t, line in stimulus]
    except KeyError as exc:
        raise UnknownLineError(f"line {exc.args[0]!r} is not a declared external input") from None
    return PreparedRun(netlist, keys)


def run_until(prepared: PreparedRun, t_end_fs: int, bias: BiasPoint, max_events: int = 10_000_000) -> Trace:
    """Execute all events in [0, t_end_fs) and collect the trace.

    A bias outside a cell's electrical operating range records one
    ELECTRICAL violation for that cell at t=0 and evaluates its delays at
    the nearest range edge, so the trace remains collectible while the run
    is marked failed.

    The sorted stimulus is walked in place and merged with a heap of the
    pulses cells and taps emit; a pulse equal to one processed merges into
    it.  Each arrival applies its cell's transition (see ``cells``) inline.
    With no zero pinned delay the run takes the folded routes, which drop or
    fold the releases no run can see (``Netlist._wiring``); a zero delay
    keeps the routes as wired.
    ``max_events`` bounds the pending pulses on lines a run can see: the
    heap (where a release equal to a pending pulse waits until it pops and
    merges) plus the stimulus not yet walked.
    """
    if t_end_fs < 0:
        raise ValueError("t_end must be non-negative")
    stimulus = prepared.keys
    if len(stimulus) > max_events:
        raise RunawayQueueError(f"stimulus of {len(stimulus)} pulses exceeds the bound of {max_events} events")
    net = prepared.netlist
    lines, _, routes, folded, folds = net._wiring
    n = len(lines)
    pins = net.at_bias(bias)
    # per run, not per pin (a kept copy per bias costs memory, not time):
    # each cell's delay times n by slot, then each fold's, and fresh cell states
    delays = [pinned.prop_delay_fs * n for pinned in pins.cells.values()]
    delays += [delays[driver] + delays[fanout] for driver, fanout in folds]
    stored = [False] * len(pins.cells)
    last = [_NEVER] * (2 * len(pins.cells))  # each cell's last data and clock, or in0 and in1
    violations = list(pins.violations)
    # with no zero delay every push lands after the current key, so a
    # duplicate pops right after its equal (the walk wins a tie), and a fold
    # cannot reorder keys; a zero delay can land one at the current instant
    # below it, so then keep the instant's processed keys and the wired routes
    processed = set() if pins.zero_delay else None
    routes = folded if processed is None else routes
    instant, latest = 0, -1
    heap: list[int] = []
    room = max_events - len(stimulus)  # the heap may outgrow the stimulus walked by this much
    end = t_end_fs * n  # above every key before t_end, at or below every other
    walk = stimulus[: bisect_left(stimulus, end)] + (end,)
    i = 0
    following = walk[0]
    recorded: list[int] = []

    while True:
        if len(heap) - i > room:  # only a push adds a pending pulse: this follows the key that overflowed
            raise RunawayQueueError(f"event queue exceeded {max_events} events — runaway feedback")
        if heap and heap[0] < following:
            key = heappop(heap)
        elif following < end:
            key = following
            i += 1
            following = walk[i]
        else:
            break
        if key == latest:
            continue
        latest = key
        t, rank = divmod(key, n)
        if processed is not None:
            if t != instant:  # no release lands before the current instant: earlier keys cannot recur
                instant = t
                processed.clear()
            elif key in processed:
                continue
            processed.add(key)
        observed, consumers, taps = routes[rank]
        if observed:
            recorded.append(key)
        for op, slot, mine, peer, window, blame, targets in consumers:
            if op:  # all but a pass check a window: time never runs back, so the gap is >= 0
                gap = t - last[peer]
                last[mine] = t
                if gap < window:
                    cell, kind, before, after = blame
                    violations.append(TimingViolation(cell, kind, t, f"{before}{gap}{after}"))
                if op == _STORE:  # data releases nothing
                    stored[slot] = True
                    continue
                if op == _RELEASE:
                    if not stored[slot]:
                        continue
                    stored[slot] = False
            for entry, offset in targets:
                heappush(heap, key + delays[entry] + offset)
        for delay, offsets, dst in taps:
            arrival = t + delay
            if offsets:  # the offset of the last entry starting at or before t
                entry = bisect_right(offsets, (t, float("inf"))) - 1
                arrival += offsets[entry][1] if entry >= 0 else 0
            if arrival <= t:
                detail = f"effective delay must stay positive (got {arrival - t} fs at t={t})"
                raise FluxloopError(f"tap {lines[rank]} -> {lines[dst]}: {detail}")
            heappush(heap, arrival * n + dst)

    if processed is not None:  # a zero-delay release may sort before the key that made it
        recorded.sort()
    return Trace(tuple(recorded), lines, tuple(violations), net.observed, t_end_fs, bias)


def query_pulses(trace: Trace, line: str, t0: int, t1: int) -> tuple[int, ...]:
    """Pulse timestamps on ``line`` within the half-open window [t0, t1)."""
    if t0 >= t1:
        raise ValueError("query window must satisfy t0 < t1")
    times = trace.pulses_on(line)  # in time order
    return times[bisect_left(times, t0):bisect_left(times, t1)]


# --- export ----------------------------------------------------------------

#: Pulses an exporter renders per ``file.write``.  A chunk's strings take
#: ~100 bytes a pulse, so an export holds ~50 KB however long the trace.
EXPORT_CHUNK = 512


def write_csv(trace: Trace, file: TextIO) -> None:
    """Write a trace to ``file`` as CSV rows (time_fs, line, kind, detail),
    rendered and written ``EXPORT_CHUNK`` pulses at a time.

    Violation rows carry the cell name in the line column and the violation
    kind as the detail prefix.  Rows are sorted by time, pulses before
    violations at equal times.
    """
    keys, n = trace.keys, len(trace.lines)
    pulse_rows = [f",{line},pulse,\n" for line in trace.lines]
    violations = sorted((v.time_fs, v.cell, f"{v.kind.value}: {v.detail}") for v in trace.violations)
    # keys are (time, line)-ordered: a violation follows the pulses up to its instant
    cuts = [bisect_left(keys, (time_fs + 1) * n) for time_fs, _, _ in violations]
    file.write("time_fs,line,kind,detail\n")
    v = 0  # the violations written so far
    for lo in range(0, len(keys) or 1, EXPORT_CHUNK):  # one pass when there are no pulses
        hi = min(lo + EXPORT_CHUNK, len(keys))
        out, done = [], lo
        while v < len(violations) and cuts[v] <= hi:
            out += [f"{k // n}{pulse_rows[k % n]}" for k in keys[done:cuts[v]]]
            done = cuts[v]
            time_fs, cell, detail = violations[v]
            if "," in detail or '"' in detail:
                detail = '"' + detail.replace('"', '""') + '"'
            out.append(f"{time_fs},{cell},violation,{detail}\n")
            v += 1
        out += [f"{k // n}{pulse_rows[k % n]}" for k in keys[done:hi]]
        file.write("".join(out))


def write_vcd(trace: Trace, file: TextIO) -> None:
    """Write a trace to ``file`` as a VCD document (1 fs timescale, toggle per
    pulse), rendered and written ``EXPORT_CHUNK`` pulses at a time."""
    if len(trace.observed) > 94:
        raise FluxloopError("too many observed lines for single-character VCD ids")
    ids = {line: chr(33 + i) for i, line in enumerate(trace.observed)}
    # keys are (time, line)-ordered and a t=0 pulse's key is its line's rank:
    # the t=0 pulses set the initial levels, and each later pulse toggles its line
    keys, lines, n = trace.keys, trace.lines, len(trace.lines)
    start = bisect_left(keys, n)
    high = {lines[rank] for rank in keys[:start]}
    out = ["$timescale 1fs $end", "$scope module fluxloop $end"]
    out += [f"$var wire 1 {ids[line]} {line} $end" for line in trace.observed]
    out += ["$upscope $end", "$enddefinitions $end", "#0"]
    out += [f"{int(line in high)}{ids[line]}" for line in trace.observed]
    file.write("\n".join(out) + "\n")
    toggle = [
        cycle((f"{int(line not in high)}{ids[line]}\n", f"{int(line in high)}{ids[line]}\n")).__next__
        if line in ids else None
        for line in lines
    ]
    t_prev = 0
    for lo in range(start, len(keys), EXPORT_CHUNK):
        out = []
        for key in keys[lo:lo + EXPORT_CHUNK]:
            t = key // n
            if t != t_prev:
                t_prev = t
                out.append(f"#{t}\n")
            out.append(toggle[key % n]())
        file.write("".join(out))


def trace_to_csv(trace: Trace) -> str:
    """The document :func:`write_csv` writes, as a string."""
    write_csv(trace, file := StringIO())
    return file.getvalue()


def trace_to_vcd(trace: Trace) -> str:
    """The document :func:`write_vcd` writes, as a string."""
    write_vcd(trace, file := StringIO())
    return file.getvalue()
