"""Deterministic discrete-event kernel.

A netlist joins cell instances through named signal lines.  Pulses are
events on lines; a cell consumes the lines wired to its input ports and
emits onto the lines wired to its outputs.  A netlist is checked and its
routes resolved in one walk over its connections when it is built, and one
retapped from it shares them, re-checking only its changed taps.  Each is
a zero-delay feed (line -> cell port: the cell steps synchronously when the
line pulses) or drive (cell port -> line), or a line -> line tap: the only
connection with a delay and the only one that may close a cycle (the storage
loop).  A tap may add a piecewise schedule of offsets (per-trip loop
jitter); each keeps its delay positive.

Events at equal timestamps are ordered by line name, and at most one pulse
exists per line and instant, so reruns of an identical (netlist, stimulus,
bias) triple produce bit-identical traces.

The run loop is Python source generated per wiring shape from one template,
compiled at the shape's first run and kept in ``linecache`` as
``<fluxloop kernel ...>`` while it lives, so a traceback shows the generated
line (``_kernel``).  It has two streams: the stimulus, walked in order, and
between its keys a heap of the pulses cells and taps emit, each dispatching
only the lines it carries.  With no zero delay a release whose landing is
provably the next key is taken at once, inside the body that emitted it.
"""

from __future__ import annotations

import zlib
from bisect import bisect_left
from collections import namedtuple
from collections.abc import Callable, Iterable, Mapping
from fractions import Fraction
from functools import cached_property, lru_cache
from heapq import heappop, heappush  # what the generated kernels push and pop with, read here at each run
from io import StringIO, TextIOBase
from itertools import compress, cycle, repeat
from operator import eq
from types import MappingProxyType
from weakref import finalize

from .core import FluxloopError, validated_record
from .cells import INPUT_PORTS, OUTPUT_PORTS, RELEASES, BiasRangeError, CellKind, CellParams, TimingViolation, ViolationKind


class NetlistError(FluxloopError):
    """The netlist is structurally invalid."""


class UnknownLineError(FluxloopError):
    pass


class DuplicatePulseError(FluxloopError):
    pass


class RunawayQueueError(FluxloopError):
    """Event queue grew past its bound — runaway feedback."""


class Connection(namedtuple("Connection", "src dst delay_fs offset_schedule", defaults=(0, ()))):
    """One wire: ``src`` -> ``dst``.

    ``src`` is a line name or ``cell.port``; same for ``dst``.  Only a
    line -> line tap carries a delay (``delay_fs``, default 0), positive with
    any offset of its ``offset_schedule`` (default none): sorted (start_fs,
    extra_delay_fs) entries — a pulse entering at time t picks up the offset
    of the last entry starting <= t.
    """

    __slots__ = ()


class Netlist(validated_record("Netlist", "cells connections external_inputs observed")):
    """Cells wired by connections, checked in the one walk that resolves its
    routes when it is built.  ``cells`` is a read-only copy of the mapping
    given, since one netlist may serve many callers (``memory.build_controller``
    memoizes).  The routes, and the kernels found at their first run, are in
    the instance dict; the cells are pinned once per bias for every netlist
    with equal cells (:meth:`at_bias`)."""

    def __new__(cls, cells: Mapping[str, CellParams], connections: tuple[Connection, ...],
                external_inputs: frozenset[str], observed: tuple[str, ...]) -> "Netlist":
        net = tuple.__new__(cls, (MappingProxyType(dict(cells)), connections, external_inputs, observed))
        net._wiring  # the walk that resolves the routes checks the netlist
        return net

    def __reduce__(self) -> tuple:
        """Pickle and copy through the constructor, leaving the cached kernels and pins behind."""
        return type(self), (dict(self.cells), self.connections, self.external_inputs, self.observed)

    @cached_property
    def _wiring(self) -> tuple[tuple[str, ...], dict[str, int], tuple]:
        """(every line a pulse can land on, by name, a pulse at t on rank r
        keyed ``t * len(lines) + r`` so int order is (time, line) order; each
        external input's rank; the wiring shapes as wired (for a zero delay)
        and folded, each (wired?, the external inputs' ranks, per rank
        (observed?, consumers, taps))).  A consumer is (transition, window
        check, slot, its and its peer's ``last`` entries, targets), a target
        (slots, rank offset): a release lands after those cells' delays; a tap
        is (connection index, rank, has a schedule?).  Folded, a release onto
        a dead line (unobserved, untapped, and read by no cell but FANOUTs
        none of whose outputs drives a live line) is dropped, and one onto a
        fanout-only line (internal, unobserved, untapped, read by one FANOUT
        alone) lands on the fanout's outputs after both delays.  An output
        nothing drives is dropped.  The walk that classifies each connection
        checks it, after the names and cells, before the cycles.  The routes
        read no tap's delay or schedule, only whether it has one, so a
        netlist :meth:`retapped` shares them."""
        # a trace's CSV and VCD carry cell and line names unquoted, one field or word each
        names = {end for conn in self.connections for end in (conn.src, conn.dst) if not _is_port(end)}
        for what, group in (("cell", self.cells), ("line", sorted(names.union(self.external_inputs, self.observed)))):
            for name in group:
                if not name or not name.isprintable() or any(c in name for c in ' ,"'):
                    raise NetlistError(f"{what} name {name!r} must be non-empty and printable, with no space, comma or double quote")
        for name, params in self.cells.items():
            if "." in name:
                raise NetlistError(f"cell name {name!r} must not contain '.'")
            if params.kind not in INPUT_PORTS:
                raise NetlistError(f"cell {name!r}: kind {params.kind!r} does not process pulses")

        fed: set[tuple[str, str]] = set()  # the (cell, input port) pairs a line feeds
        ports_on: dict[str, list[tuple[str, str]]] = {}  # line -> the (cell, input port) pairs it feeds
        drives: dict[tuple[str, str], str] = {}  # (cell, output port) -> the line it drives
        taps: dict[str, list[tuple[int, str, bool]]] = {}  # line -> (connection index, line tapped into, scheduled?)
        adjacency: dict[tuple[str, bool], list[tuple[str, bool]]] = {}  # (name, is a cell?) -> the nodes it drives
        for index, conn in enumerate(self.connections):
            for endpoint in filter(_is_port, (conn.src, conn.dst)):
                cell, _, port = endpoint.partition(".")
                if cell not in self.cells:
                    raise NetlistError(f"connection endpoint {endpoint!r} references unknown cell")
                kind = self.cells[cell].kind
                if port not in INPUT_PORTS[kind] + OUTPUT_PORTS[kind]:
                    raise NetlistError(f"cell {cell!r} ({kind.value}) has no port {port!r}")
            if _is_port(conn.src) and _is_port(conn.dst):
                raise NetlistError(f"{conn.src} -> {conn.dst}: cell ports must connect through a line")
            if _is_port(conn.dst):  # a feed: cell, port and kind are its one port end's, checked above
                if port not in INPUT_PORTS[kind]:
                    raise NetlistError(f"{conn.dst} is not an input port")
                if (cell, port) in fed:
                    raise NetlistError(f"input port {conn.dst} has more than one driver")
                fed.add((cell, port))
                ports_on.setdefault(conn.src, []).append((cell, port))
                adjacency.setdefault((conn.src, False), []).append((cell, True))
            elif _is_port(conn.src):  # a drive, likewise
                if port not in OUTPUT_PORTS[kind]:
                    raise NetlistError(f"{conn.src} is not an output port")
                if (cell, port) in drives:
                    raise NetlistError(f"output port {conn.src} drives more than one line")
                drives[cell, port] = conn.dst
                adjacency.setdefault((cell, True), []).append((conn.dst, False))
            else:  # a tap: every delay it can give is positive, so a cycle through it is no combinational one
                _check_tap(conn)
                taps.setdefault(conn.src, []).append((index, conn.dst, bool(conn.offset_schedule)))
                continue
            if conn.delay_fs != 0 or conn.offset_schedule:
                raise NetlistError(f"{conn.src} -> {conn.dst}: wiring to or from a cell port must have zero delay and no schedule")
        import graphlib  # a netlist's check needs it, an import does not
        try:  # each node drives the nodes it lists: the reverse of graphlib's sense, with the same cycles
            order = tuple(graphlib.TopologicalSorter(adjacency).static_order())  # a node after every node it drives
        except graphlib.CycleError as exc:
            node = min(name for name, _ in exc.args[1])
            raise NetlistError(f"combinational cycle through {node!r}; only a delayed tap may close a cycle") from None

        lines = tuple(sorted(self.external_inputs.union(drives.values(), (dst for line_taps in taps.values() for _, dst, _ in line_taps))))
        rank = {line: r for r, line in enumerate(lines)}
        slot = {name: i for i, name in enumerate(_slot_order(self.cells))}
        # live: the observed and tapped lines, and each line read by a cell other than a FANOUT that drives no live line
        live = set(self.observed).union(taps)
        for name, is_cell in order:
            if not is_cell and any(self.cells[cell].kind is not CellKind.FANOUT or not live.isdisjoint(
                    drives.get((cell, out)) for out in OUTPUT_PORTS[CellKind.FANOUT]) for cell, _ in ports_on.get(name, ())):
                live.add(name)
        dead, fanout_of = set(), {}  # by rank: the dead lines, and each fanout-only line's (fanout, port)
        for line in set(lines) - set(self.observed) - taps.keys():
            ports = ports_on.get(line, ())
            if line not in live:
                dead.add(rank[line])
            elif len(ports) == 1 and line not in self.external_inputs and self.cells[ports[0][0]].kind is CellKind.FANOUT:
                fanout_of[rank[line]] = ports[0]

        def consumer(cell: str, port: str) -> tuple:
            # the transition (see ``cells``) and its check: the window's field (none varies with bias),
            # the violation's kind and its detail given the gap and the window
            kind, s = self.cells[cell].kind, slot[cell]
            first = port == INPUT_PORTS[kind][0]  # data or in0: a cell's two ``last`` entries are its inputs'
            op, check = (
                ("pass", None) if kind is CellKind.FANOUT
                else ("merge", ("min_separation_fs", "ELECTRICAL", "inputs %d fs apart (min separation %d fs)")) if kind is CellKind.MERGER
                else ("store", ("hold_fs", "HOLD", "data %d fs after clock (hold %d fs)")) if first
                else ("release", ("setup_fs", "SETUP", f"{port} %d fs after data (setup %d fs)")))
            return op, check, s, 2 * s + (not first), 2 * s + first

        def released(cell: str, port: str) -> list[int]:
            return [rank[drives[cell, out]] for out in RELEASES[self.cells[cell].kind][port] if (cell, out) in drives]

        def targets(cell: str, port: str, here: int, fold: bool) -> tuple[tuple[tuple[int, ...], int], ...]:
            out = []
            for dst in released(cell, port):
                if fold and dst in fanout_of:
                    fanout, fanout_port = fanout_of[dst]
                    out += [((slot[cell], slot[fanout]), r - here) for r in released(fanout, fanout_port) if r not in dead]
                elif not (fold and dst in dead):
                    out.append(((slot[cell],), dst - here))
            return tuple(out)

        def route(line: str, fold: bool) -> tuple:
            consumers = tuple((*consumer(cell, port), targets(cell, port, rank[line], fold)) for cell, port in sorted(ports_on.get(line, ())))
            return line in self.observed, consumers, tuple((j, rank[dst], scheduled) for j, dst, scheduled in taps.get(line, ()))

        inputs = tuple(sorted(rank[line] for line in self.external_inputs))
        shapes = tuple((not fold, inputs, tuple(route(line, fold) for line in lines)) for fold in (False, True))
        return lines, {line: rank[line] for line in self.external_inputs}, shapes

    def _bind(self, shape: tuple) -> tuple[Callable[..., list[int]], tuple]:
        """A shape's kernel and (its checks, its pins' binder, this netlist's tap constants)."""
        kernel, (checks, bind_pins, bind_taps) = _kernel(*shape)
        return kernel, (checks, bind_pins, bind_taps(self.connections))

    # compiled, or taken from the bounded cache of shapes, at a route table's first run
    _wired_kernel = cached_property(lambda self: self._bind(self._wiring[2][0]))
    _folded_kernel = cached_property(lambda self: self._bind(self._wiring[2][1]))

    @property
    def lines(self) -> tuple[str, ...]:
        """Every line a pulse can land on, by name: the table kernel keys rank lines in."""
        return self._wiring[0]

    @cached_property
    def _cell_set(self) -> frozenset:
        """The cells as one value, hashed once (a frozenset keeps its hash):
        the key on which netlists with equal cells share their pins."""
        return frozenset(self.cells.items())

    def at_bias(self, bias: Fraction) -> "PinnedNetlist":
        """Every cell pinned at ``bias`` (a positive ratio, else ``ValueError``),
        from the pins of every netlist with equal cells (cached per cell set and
        bias, keyed on its integers: a hit hashes no Fraction)."""
        return _pin(self._cell_set, *bias.as_integer_ratio())

    def retapped(self, connections: tuple[Connection, ...]) -> "Netlist":
        """This netlist with ``connections``, equal to its own but in taps'
        delays and schedules (a schedule stays given, or absent): the netlist
        the constructor would build from them, sharing this one's cells,
        routes and cell-set key.  Only a changed tap is checked, by the rule
        the constructor applies (``NetlistError``, in its words); any other
        change raises ``ValueError``."""
        if len(connections) != len(self.connections):
            raise ValueError(f"a retapped netlist keeps its {len(self.connections)} connections")
        for index, (old, new) in enumerate(zip(self.connections, connections)):
            if new != old:
                if (new.src, new.dst) != (old.src, old.dst) or _is_port(old.src) or _is_port(old.dst) or (
                        bool(new.offset_schedule) != bool(old.offset_schedule)):
                    raise ValueError(f"connection {index} ({old.src} -> {old.dst}) changes more than a tap's delay and schedule")
                _check_tap(new)
        net = tuple.__new__(type(self), (self.cells, connections, self.external_inputs, self.observed))
        net.__dict__.update(_wiring=self._wiring, _cell_set=self._cell_set)
        return net


def _check_tap(conn: Connection) -> None:
    """The tap rule: a schedule sorted by start time, and a positive delay with each offset."""
    starts = [s for s, _ in conn.offset_schedule]
    if starts != sorted(starts):
        raise NetlistError(f"{conn.src} -> {conn.dst}: offset schedule must be sorted by start time")
    least = min([conn.delay_fs] + [conn.delay_fs + offset for _, offset in conn.offset_schedule])
    if least <= 0:
        raise NetlistError(f"line tap {conn.src} -> {conn.dst} needs a positive delay (got {least} fs)")


class PinnedNetlist:
    """A netlist's cells at one bias: constant delays, and the t=0
    ELECTRICAL violations of cells whose range excludes the bias.  It holds
    no run state: a run brings its own."""

    # A slotted class: cheaper than a NamedTuple to define at every CLI start.
    __slots__ = ("cells", "violations", "zero_delay", "bound")

    def __init__(self, cells: Mapping[str, CellParams], violations: tuple[TimingViolation, ...], zero_delay: bool) -> None:
        self.cells = cells
        self.violations = violations
        #: a zero pinned delay can emit at the current instant: the run takes
        #: the wired routes and their kernel (see run_until)
        self.zero_delay = zero_delay
        #: (the binder of the last kernel run on these pins, its windows and delay sums)
        self.bound = None, ()


def _slot_order(cells: Mapping[str, CellParams]) -> list[str]:
    """The cells' names in slot order: the order ``_pin`` pins them in (so
    ELECTRICAL violations come in name order), which the kernel's slots index."""
    return sorted(cells)


#: The kernel: the stimulus walked in order and, before each walk key, the
#: heap drained of the keys below it.  ``end`` closes the walk (its rank is 0)
#: and sits in the heap, so ``heap[0]`` always exists.
_KERNEL = """\
def bind_pins(cells):  # once per pinned cell set: the windows and delay sums
    return {pinned}
def bind_taps(connections):  # once per netlist: the taps' delays and schedules
    return {tapped}
def kernel(walk, end, room, max_events, pinned, tapped, flagged):
{prologue}
    heap, recorded, latest = [end], [], -1
    push, pop, record, late = heappush, heappop, recorded.append, flagged.append
    for i, w in enumerate(walk, 1):  # i: the walk keys taken once w is
        while heap[0] < w:  # the walk wins a tie
            key = pop(heap)
            if key == latest:
                continue
            latest = key
{queued}
        key = latest = w
{walked}
    return recorded
"""


#: How deep the folded kernel takes a chain of landings inside the body that
#: emits it.  Each level repeats the body of a rank it lands on, so the cap
#: keeps a kernel's source linear in its route table.
INLINE_DEPTH = 2


@lru_cache(maxsize=32)
def _kernel(wired: bool, inputs: tuple[int, ...], routes: tuple) -> tuple[Callable[..., list[int]], tuple]:
    """A shape's kernel (see ``Netlist._wiring``), compiled with the globals
    where a run finds ``heappush`` and ``heappop``, and (its window checks by
    the index it flags them with: (slot, window field, kind, detail); the
    binders of its constants, ``bind_pins(cells by slot)`` and
    ``bind_taps(connections)``), whose tuples it unpacks in one statement.

    A body per landing rank, in keys; locals: ``S`` a slot's stored pulse;
    ``L`` a ``last`` entry (a time times ``n``); ``W`` a window, one per (slot, field);
    ``T`` a target's delay plus rank offset; ``K`` a plain tap's delay plus
    rank offset, ``D``/``X`` a scheduled tap's, and its schedule behind a
    (-1, 0) entry that every pulse follows.  ``bind_pins`` gives the ``W``
    and ``T``, ``bind_taps`` the ``K``, ``D`` and ``X``.

    Folded, a release that ends its line's body (one consumer, no tap) is
    taken at once, inside that body, when its key is below every pending key
    (the heap's least and the next walk key), up to ``INLINE_DEPTH`` deep;
    otherwise it is pushed.  Such a release's landings share one delay sum
    (else all are pushed), so rank offset order is their time order: the
    first is the one taken, once the others are pushed.  Wired, every landing
    is pushed, both streams skip a key processed at its instant, and the
    recorded keys are sorted at the end.  The bound on pending pulses is
    checked only where one key adds two or more, counting a landing about
    to be taken."""
    import linecache  # a run compiles, an import does not
    n = len(routes)
    sums: dict[tuple[tuple[int, ...], int], str] = {}  # (slots, offset) -> its T local; a fold sums two delays
    stored, entries, windows, taps, checks = set(), set(), {}, {}, {}  # windows: (slot, field) -> its W local

    def pending(taking: int, stream: tuple[str, int]) -> list[str]:
        # the heap less its sentinel end, the stimulus not taken (i - 1 keys are
        # taken while the heap drains, i once w is) and a landing being taken
        extra = taking + stream[1]
        return [f"if len(heap) - i{f' + {extra}' if extra > 0 else f' - {-extra}' if extra else ''} > room:",
                "    _overflow(max_events)"]

    def delay(target: tuple[tuple[int, ...], int]) -> str:
        return sums.setdefault(target, "T%d" % len(sums))

    def landing(r: int, stream: tuple[str, int], depth: int = 0) -> list[str]:
        # the body of ``key`` landing on rank r; ``stream``: the next walk key and the count's correction
        observed, consumers, route_taps = routes[r]
        out = ["record(key)"] if observed else []
        if any(check for _, check, *_ in consumers):
            out.append(f"now = key - {r}")
        emitted, chained = len(route_taps), False
        for op, check, slot, mine, peer, targets in consumers:
            if check:  # time never runs back, so the gap is >= 0
                entries.update((mine, peer))
                window = windows.setdefault((slot, check[0]), "W%d" % len(windows))
                flag = checks.setdefault((slot, *check), len(checks))
                out += [f"if now - L{peer} < {window}:", f"    late(({flag}, now, L{peer}))", f"L{mine} = now"]
            if op == "store":  # data releases nothing
                stored.add(slot)
                out.append(f"S{slot} = True")
                continue
            emitted += len(targets)
            chained = (not wired and len(consumers) == 1 and not route_taps and depth < INLINE_DEPTH
                       and len({cells for cells, _ in targets}) == 1)
            if chained:  # one delay sum: the least rank offset lands first
                first, *rest = sorted(targets, key=lambda target: target[1])
                pushes = [f"push(heap, key + {delay(target)})" for target in rest] + (pending(1, stream) if rest else [])
                pushes += [f"key += {delay(first)}", f"if key < heap[0] and key < {stream[0]}:",
                           *_indent(landing(r + first[1], stream, depth + 1) or ["pass"]), "else:", "    push(heap, key)"]
            else:
                pushes = [f"push(heap, key + {delay(target)})" for target in targets]
            if op == "release":
                stored.add(slot)
                pushes = [f"if S{slot}:", f"    S{slot} = False", *_indent(pushes)]
            out += pushes
        for j, dst, scheduled in route_taps:  # a schedule adds the offset of its last entry starting at or before t
            if scheduled:
                taps[j] = {f"D{j}": f"connections[{j}].delay_fs * {n} + {dst - r}",
                           f"X{j}": f"((-1, 0), *connections[{j}].offset_schedule)"}
                out.append(f"push(heap, key + D{j} + X{j}[bisect_left(X{j}, (key // n + 1,)) - 1][1] * n)")
            else:
                taps[j] = {f"K{j}": f"connections[{j}].delay_fs * {n} + {dst - r}"}
                out.append(f"push(heap, key + K{j})")
        if emitted > 1 and not chained:
            out += pending(0, stream)
        return out

    def dispatch(leaves: list[tuple[int, list[str]]]) -> list[str]:  # a balanced tree over ranks ascending
        if len(leaves) == 1:
            return leaves[0][1] or ["pass"]
        mid = len(leaves) // 2
        left, right = dispatch(leaves[:mid]), dispatch(leaves[mid:])
        return left if left == right else [f"if rank < {leaves[mid][0]}:", *_indent(left), "else:", *_indent(right)]

    def tree(leaves: list[tuple[int, list[str]]], indent: int) -> str:
        # wired, each stream processes a key once per instant: no release lands before the current instant
        guard = ["if key >= later:", "    later = key - key % n + n", "    processed.clear()",
                 "elif key in processed:", "    continue", "processed.add(key)"] if wired else []
        lines = guard + (["rank = key % n"] if len(leaves) > 1 else []) + (dispatch(leaves) if leaves else ["pass"])
        return "\n".join(" " * indent + line for line in lines)

    # the heap carries releases' and taps' landings, the walk the external inputs and, at rank 0, end
    landed = {r + offset for r, (_, consumers, _) in enumerate(routes) for *_, targets in consumers for _, offset in targets}
    landed |= {dst for _, _, route_taps in routes for _, dst, _ in route_taps}
    walked = {r: landing(r, ("walk[i]", -1)) for r in inputs}
    ending = ["recorded.sort()", "break"] if wired else ["break"]  # wired, a release may sort before its cause
    walked[0] = ["if key == end:", *_indent(ending), *walked[0]] if 0 in walked else ending
    parts = {"queued": tree([(r, landing(r, ("w", 0))) for r in sorted(landed)], 12), "walked": tree(sorted(walked.items()), 8)}
    pinned = {name: f"cells[{slot}].{field} * {n}" for (slot, field), name in windows.items()} | {
        name: f"({' + '.join(f'cells[{slot}].prop_delay_fs' for slot in cells)}) * {n} {'-' if offset < 0 else '+'} {abs(offset)}"
        for (cells, offset), name in sums.items()}
    tapped = {name: value for j in sorted(taps) for name, value in taps[j].items()}

    def display(items: Iterable[str]) -> str:  # a tuple display, or an unpacking target
        return f"({''.join(f'{item}, ' for item in items)[:-1]})"

    prologue = [f"{display(pinned)}, {display(tapped)} = pinned, tapped"]
    # no window reaches -inf; a slot's S is its stored pulse
    prologue += [" = ".join([*(f"L{entry}" for entry in sorted(entries)), 'float("-inf")'])] if entries else []
    prologue += [" = ".join([*(f"S{slot}" for slot in sorted(stored)), "False"])] if stored else []
    prologue += ["processed, later = set(), 0"] if wired else []  # keys below ``later`` are at the current instant
    source = _KERNEL.format(pinned=display(pinned.values()), tapped=display(tapped.values()),
                            prologue="\n".join(_indent([f"n = {n}", *prologue])), **parts)
    name = f"<fluxloop kernel {zlib.crc32(source.encode()):08x}>"
    cached = linecache.cache[name] = (len(source), None, source.splitlines(True), name)  # no mtime: checkcache keeps it
    exec(compile(source, name, "exec"), globals(), namespace := {})
    finalize(kernel := namespace["kernel"], _forget, linecache.cache, name, cached)
    return kernel, (tuple(checks), namespace["bind_pins"], namespace["bind_taps"])


def _forget(cache: dict, name: str, cached: tuple) -> None:
    """Drop a collected kernel's source, unless a later compile of that source holds its name."""
    if cache.get(name) is cached:
        del cache[name]


def _overflow(max_events: int):
    """The generated kernels' one raise of a queue past its bound."""
    raise RunawayQueueError(f"event queue exceeded {max_events} events — runaway feedback")


def _violation(cells: tuple[tuple[str, CellParams], ...], check: tuple[int, str, str, str], t: int, last: int) -> TimingViolation:
    """The violation a kernel flagged at t, a gap after ``last``, given its check."""
    slot, field, kind, detail = check
    cell, pinned = cells[slot]
    return TimingViolation(cell, ViolationKind[kind], t, detail % (t - last, getattr(pinned, field)))


def _indent(lines: list[str]) -> list[str]:
    return ["    " + line for line in lines]


# Bounded: a margin search visits at most 101 ratios per cell set, and a sweep's netlists share one.
@lru_cache(maxsize=256)
def _pin(cell_set: frozenset, num: int, den: int) -> PinnedNetlist:
    if num <= 0:  # a miss: a warm run's bias was checked when it was pinned
        raise ValueError("bias ratio must be positive")
    cells, bias = dict(cell_set), Fraction(num, den)
    violations, pinned = [], {}
    for name in _slot_order(cells):
        params = cells[name]
        try:
            pinned[name] = params.at_bias(bias)
        except BiasRangeError as exc:
            violations.append(TimingViolation(name, ViolationKind.ELECTRICAL, 0, str(exc)))
            lo, hi = params.operating_range()
            pinned[name] = params.at_bias(lo if bias < lo else hi)  # the cell runs saturated at the range edge
    return PinnedNetlist(MappingProxyType(pinned), tuple(violations), any(p.prop_delay_fs == 0 for p in pinned.values()))


def _is_port(endpoint: str) -> bool:
    return "." in endpoint


class Trace(namedtuple("Trace", "keys lines violations observed t_end_fs bias")):
    """Everything one run produced: pulses on observed lines + violations.

    ``keys`` holds each pulse as the kernel keys it: ``t * len(lines) + r``
    for a pulse at t on ``lines[r]``, ``lines`` being the netlist's sorted
    line table (:attr:`Netlist.lines`).  The keys ascend, so the pulses come
    in strictly increasing ``(time_fs, line)`` order: at most one pulse per
    line and instant.  ``events`` is the same pulses as ``(time_fs, line)``
    pairs, derived at each read.
    """

    __slots__ = ()

    @property
    def events(self) -> tuple[tuple[int, str], ...]:
        lines = self.lines
        return tuple([(t, lines[r]) for t, r in map(divmod, self.keys, repeat(len(lines)))])

    @property
    def failed(self) -> bool:
        return bool(self.violations)


class PreparedRun(validated_record("PreparedRun", "netlist keys")):
    """A netlist and its stimulus as kernel keys on its external inputs
    (see :class:`Trace`), sorted here.  A pulse at a negative time, on a line
    that is no external input, or equal to another is refused.  ``schedule``
    makes one from ``(time_fs, line)`` pairs."""

    __slots__ = ()

    def __new__(cls, netlist: Netlist, keys: Iterable[int] = ()) -> "PreparedRun":
        keys, lines, n = sorted(keys), netlist.lines, len(netlist.lines)
        if keys and not n:  # no line, so no external input
            raise UnknownLineError("the netlist declares no external input")
        if keys and keys[0] < 0:
            t, rank = divmod(keys[0], n)
            raise ValueError(f"pulse time must be non-negative, got {t} fs on {lines[rank]!r}")
        off_inputs = {key % n for key in keys}.difference(netlist._wiring[1].values())
        if off_inputs:
            raise UnknownLineError(f"line {lines[min(off_inputs)]!r} is not a declared external input")
        # sorted, so a duplicate sits just before its equal
        duplicate = next(compress(keys, map(eq, keys, keys[1:])), None)
        if duplicate is not None:
            t, rank = divmod(duplicate, n)
            raise DuplicatePulseError(f"duplicate pulse on {lines[rank]!r} at {t} fs")
        return tuple.__new__(cls, (netlist, tuple(keys)))


def schedule(netlist: Netlist, stimulus: Iterable[tuple[int, str]]) -> PreparedRun:
    """Load stimulus, rejecting pulses on undeclared lines and duplicates."""
    inputs, n = netlist._wiring[1], len(netlist.lines)
    try:
        keys = [t * n + inputs[line] for t, line in stimulus]
    except KeyError as exc:
        raise UnknownLineError(f"line {exc.args[0]!r} is not a declared external input") from None
    return PreparedRun(netlist, keys)


def run_until(prepared: PreparedRun, t_end_fs: int, bias: Fraction, max_events: int = 10_000_000) -> Trace:
    """Execute all events in [0, t_end_fs) at ``bias`` and collect the trace.

    A bias is a positive exact ratio of nominal (else ``ValueError``).  One
    outside a cell's electrical operating range records one ELECTRICAL
    violation for that cell at t=0 and evaluates its delays at the nearest
    range edge, so the trace remains collectible while the run is marked failed.

    The sorted stimulus is walked in place and merged with a heap of the
    pulses cells and taps emit; a pulse equal to one processed merges into
    it.  Each arrival applies its cell's transition (see ``cells``) inline.
    A ``for`` loop over the stimulus drains the heap of the keys below each
    walk key (the walk wins a tie).  With no zero pinned delay the run takes
    the folded routes, which drop or fold the releases no run can see
    (``Netlist._wiring``), and a release that ends its line's body lands at
    once when its key is below both the heap's least and the next walk key,
    since no other pulse can come first; a tap's landing is always queued.
    A zero delay keeps the routes as wired and queues every landing, since
    one may sort before the key that made it: a key processed at its instant
    is skipped, and the recorded keys are sorted at the end.  Each kernel is
    generated from one template for its routes' shape (``_kernel``).  A run
    sets up only its own state (``last`` entries, stored pulses, heap): the
    windows and delay sums are bound once per pinned cell set and kernel and
    kept on the pins (while ``_pin`` keeps them), the taps' delays once per
    netlist and kernel, kept with the netlist's kernel.

    ``max_events`` bounds the pending pulses on lines a run can see: the
    heap (where a release equal to a pending pulse waits until it pops and
    merges), the stimulus not yet walked and a landing about to be taken at
    once, as if it had been pushed.  The count is checked where one key adds
    two or more pulses, so a run raises for the same stimulus and bound
    whether its landings are pushed or taken at once.
    """
    if t_end_fs < 0:
        raise ValueError("t_end must be non-negative")
    stimulus = prepared.keys
    if len(stimulus) > max_events:
        raise RunawayQueueError(f"stimulus of {len(stimulus)} pulses exceeds the bound of {max_events} events")
    net = prepared.netlist
    pins = net.at_bias(bias)
    # with no zero delay every push lands after the current key, so a duplicate pops right after its
    # equal (the walk wins a tie) and a fold cannot reorder keys; the wired kernel allows for one
    kernel, (checks, bind_pins, tapped) = net._wired_kernel if pins.zero_delay else net._folded_kernel
    bound, pinned = pins.bound
    if bound is not bind_pins:  # the pins' first run on this kernel, or another kernel ran on them since
        pinned = bind_pins(tuple(pins.cells.values()))  # in slot order
        pins.bound = bind_pins, pinned
    n = len(net.lines)
    end = t_end_fs * n  # above every key before t_end, at or below every other
    walk = stimulus[: bisect_left(stimulus, end)] + (end,)
    flagged = []
    # room: the heap may outgrow the stimulus walked by this much
    recorded = kernel(walk, end, max_events - len(stimulus), max_events, pinned, tapped, flagged)
    violations = pins.violations
    if flagged:  # (the check's index, its instant, the peer entry's last instant), times n
        cells = tuple(pins.cells.items())  # (name, pin) by slot
        violations += tuple(_violation(cells, checks[index], now // n, last // n) for index, now, last in flagged)
    return tuple.__new__(Trace, (tuple(recorded), net.lines, violations, net.observed, t_end_fs, bias))  # as Trace(...)


# --- export ----------------------------------------------------------------

#: Pulses an exporter renders per ``file.write``.  A chunk's strings take
#: ~100 bytes a pulse, so an export holds ~50 KB however long the trace.
EXPORT_CHUNK = 512


def write_csv(trace: Trace, file: TextIOBase) -> None:
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


def write_vcd(trace: Trace, file: TextIOBase) -> None:
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
