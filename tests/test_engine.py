"""Event kernel: netlist validation, scheduling, determinism, exports."""

from __future__ import annotations

import copy
import io
import pickle
import random
import tracemalloc
from fractions import Fraction
from heapq import heappop, heappush

import pytest
from hypothesis import example, given, settings, strategies as st

import _oracle
from fluxloop import FluxloopError, SimConfig, build_controller, cells, engine, run_program, scenario_write_read, stimulus_for
from fluxloop.cells import BiasDelayModel, CellKind, CellParams, TimingViolation, ViolationKind
from fluxloop.core import CELL_NAMES, NOMINAL_BIAS, BiasPoint, PulseEvent, trip_duration
from fluxloop.engine import (
    EXPORT_CHUNK,
    Connection,
    DuplicatePulseError,
    Netlist,
    NetlistError,
    RunawayQueueError,
    Trace,
    UnknownLineError,
    query_pulses,
    run_until,
    schedule,
    trace_to_csv,
    trace_to_vcd,
    write_csv,
    write_vcd,
)
from fluxloop.memory import MemoryProgram, TripOp

DRO = CellParams(kind=CellKind.DRO, prop_delay_fs=5000, setup_fs=2000, hold_fs=1000)
MERGER = CellParams(kind=CellKind.MERGER, prop_delay_fs=1500, min_separation_fs=2000)
FANOUT = CellParams(kind=CellKind.FANOUT, prop_delay_fs=500)


def dro_netlist() -> Netlist:
    return Netlist(
        cells={"d": DRO},
        connections=(
            Connection("din", "d.data"),
            Connection("clk", "d.clock"),
            Connection("d.out", "out"),
        ),
        external_inputs=frozenset({"din", "clk"}),
        observed=("din", "clk", "out"),
    )


def run(net: Netlist, pulses: list[tuple[int, str]], t_end: int = 10**6, **kw) -> Trace:
    prepared = schedule(net, [PulseEvent(t, line) for t, line in pulses])
    return run_until(prepared, t_end, kw.pop("bias", NOMINAL_BIAS), **kw)


class TestNetlistValidation:
    def test_port_to_port_rejected(self):
        with pytest.raises(NetlistError, match="cell ports must connect through a line"):
            Netlist(
                cells={"d": DRO, "m": MERGER},
                connections=(Connection("d.out", "m.in0"),),
                external_inputs=frozenset(),
                observed=(),
            )

    def test_unknown_cell_and_port(self):
        with pytest.raises(NetlistError, match="references unknown cell"):
            Netlist(cells={}, connections=(Connection("x", "ghost.data"),), external_inputs=frozenset(), observed=())
        with pytest.raises(NetlistError, match="has no port 'clk'"):
            Netlist(cells={"d": DRO}, connections=(Connection("x", "d.clk"),), external_inputs=frozenset(), observed=())

    def test_direction_checks(self):
        with pytest.raises(NetlistError, match="is not an input port"):
            Netlist(cells={"d": DRO}, connections=(Connection("x", "d.out"),), external_inputs=frozenset(), observed=())
        with pytest.raises(NetlistError, match="is not an output port"):
            Netlist(cells={"d": DRO}, connections=(Connection("d.data", "x"),), external_inputs=frozenset(), observed=())

    def test_port_wiring_must_be_instant(self):
        with pytest.raises(NetlistError, match="must have zero delay"):
            Netlist(
                cells={"d": DRO},
                connections=(Connection("x", "d.data", delay_fs=10),),
                external_inputs=frozenset(),
                observed=(),
            )

    def test_single_driver_per_input(self):
        with pytest.raises(NetlistError, match="more than one driver"):
            Netlist(
                cells={"d": DRO},
                connections=(Connection("x", "d.data"), Connection("y", "d.data")),
                external_inputs=frozenset(),
                observed=(),
            )

    def test_single_line_per_output(self):
        with pytest.raises(NetlistError, match="^output port f.out_a drives more than one line$"):
            Netlist(
                cells={"f": FANOUT},
                connections=(Connection("z", "f.in"), Connection("f.out_a", "a"), Connection("f.out_a", "b")),
                external_inputs=frozenset({"z"}),
                observed=("a", "b"),
            )

    def test_tap_needs_positive_delay(self):
        with pytest.raises(NetlistError, match="needs a positive delay"):
            Netlist(cells={}, connections=(Connection("a", "b"),), external_inputs=frozenset(), observed=())

    def test_offset_schedule_must_be_sorted(self):
        with pytest.raises(NetlistError, match="sorted by start time"):
            Netlist(
                cells={},
                connections=(Connection("a", "b", delay_fs=10, offset_schedule=((100, 0), (50, 5))),),
                external_inputs=frozenset(),
                observed=(),
            )

    def test_cycle_detection(self):
        with pytest.raises(NetlistError, match="only the storage loop may cycle"):
            Netlist(
                cells={"d": DRO},
                connections=(
                    Connection("x", "d.data"),
                    Connection("d.out", "y"),
                    Connection("y", "x", delay_fs=100),
                ),
                external_inputs=frozenset(),
                observed=(),
            )

    def test_loop_marked_cycle_is_allowed(self):
        net = Netlist(
            cells={"d": DRO},
            connections=(
                Connection("x", "d.data"),
                Connection("d.out", "y"),
                Connection("y", "x", delay_fs=100, is_loop=True),
            ),
            external_inputs=frozenset({"x"}),
            observed=("x", "y"),
        )
        assert net.connections[-1].is_loop

    def test_dotted_cell_name_rejected(self):
        with pytest.raises(NetlistError, match="must not contain"):
            Netlist(cells={"a.b": DRO}, connections=(), external_inputs=frozenset(), observed=())


class TestSchedule:
    def test_rejects_unknown_line(self):
        with pytest.raises(UnknownLineError, match="not a declared external input"):
            schedule(dro_netlist(), [PulseEvent(0, "mystery")])

    def test_rejects_duplicates(self):
        with pytest.raises(DuplicatePulseError, match="duplicate pulse on 'din' at 5 fs"):
            schedule(dro_netlist(), [PulseEvent(5, "din"), PulseEvent(5, "din")])

    def test_sorts_stimulus(self):
        prepared = schedule(dro_netlist(), [PulseEvent(10, "din"), PulseEvent(2, "clk")])
        # keyed t * 3 + rank over the sorted lines clk, din, out
        assert prepared.keys == (2 * 3 + 0, 10 * 3 + 1)


class TestRunUntil:
    def test_store_release_through_netlist(self):
        trace = run(dro_netlist(), [(0, "din"), (20000, "clk")])
        assert trace.pulses_on("out") == (25000,)
        assert not trace.failed

    def test_t_end_is_exclusive(self):
        net = dro_netlist()
        trace = run(net, [(0, "din"), (20000, "clk")], t_end=25000)
        assert trace.pulses_on("out") == ()
        trace = run(net, [(0, "din"), (20000, "clk")], t_end=25001)
        assert trace.pulses_on("out") == (25000,)

    def test_coincident_pulses_on_a_line_merge(self):
        # both merger inputs fire at t=0; the outputs land on one line at
        # the same instant and must merge into a single pulse
        net = Netlist(
            cells={"m": MERGER},
            connections=(
                Connection("a", "m.in0"),
                Connection("b", "m.in1"),
                Connection("m.out", "merged"),
            ),
            external_inputs=frozenset({"a", "b"}),
            observed=("merged",),
        )
        trace = run(net, [(0, "a"), (0, "b")])
        assert trace.pulses_on("merged") == (1500,)
        assert [v.kind for v in trace.violations] == [ViolationKind.ELECTRICAL]

    def test_clock_consumed_before_data_on_ties(self):
        # one line drives both ports: the release happens before the new
        # store, so a full cell emits exactly one pulse per shared tick
        net = Netlist(
            cells={"d": DRO},
            connections=(
                Connection("stim", "d.clock"),
                Connection("stim", "d.data"),
                Connection("d.out", "out"),
            ),
            external_inputs=frozenset({"stim"}),
            observed=("out",),
        )
        trace = run(net, [(1000, "stim"), (20000, "stim")])
        assert trace.pulses_on("out") == (25000,)

    def test_out_of_range_bias_flags_and_clamps(self):
        params = CellParams(
            kind=CellKind.DRO,
            prop_delay_fs=3000,
            setup_fs=2000,
            hold_fs=1000,
            delay_model=BiasDelayModel.scaled(3000),
        )
        net = Netlist(
            cells={"d": params},
            connections=(
                Connection("din", "d.data"),
                Connection("clk", "d.clock"),
                Connection("d.out", "out"),
            ),
            external_inputs=frozenset({"din", "clk"}),
            observed=("out",),
        )
        trace = run(net, [(0, "din"), (20000, "clk")], bias=BiasPoint.of(0.5))
        assert trace.failed
        v = trace.violations[0]
        assert (v.cell, v.kind, v.time_fs) == ("d", ViolationKind.ELECTRICAL, 0)
        assert v.detail == "bias 0.5 outside operating range [0.76, 1.24]"
        # delays evaluate at the clamped range edge (0.76 -> multiplier 1.39)
        assert trace.pulses_on("out") == (24170,)

    @pytest.mark.parametrize("outside, edge", [("0.5", "0.76"), ("1.5", "1.24")])
    def test_controller_out_of_range_flags_each_cell_once_and_runs_at_the_edge(self, outside, edge):
        cfg = SimConfig(frequency_hz=100 * 10**9, num_addresses=3)
        prepared = schedule(build_controller(cfg), stimulus_for(scenario_write_read(1, 3), cfg))
        t_end = 5 * trip_duration(cfg)
        off = run_until(prepared, t_end, BiasPoint.of(outside))
        at_edge = run_until(prepared, t_end, BiasPoint.of(edge))
        flagged = [v for v in off.violations if "outside operating range" in v.detail]
        assert [v.cell for v in flagged] == sorted(CELL_NAMES)
        assert all(v.kind == ViolationKind.ELECTRICAL and v.time_fs == 0 for v in flagged)
        assert off.violations[len(flagged):] == at_edge.violations
        assert off.events == at_edge.events

    def test_delay_curves_are_evaluated_per_run_not_per_event(self, monkeypatch):
        cfg = SimConfig(frequency_hz=100 * 10**9, num_addresses=3)
        controller = build_controller(cfg)
        # a netlist of its own, so no earlier run has pinned a bias on it
        net = Netlist(controller.cells, controller.connections, controller.external_inputs, controller.observed)
        lookups = []
        original = cells.delay_at_bias
        monkeypatch.setattr(cells, "delay_at_bias", lambda model, b: lookups.append(b) or original(model, b))

        def count(trips: int, ratio: str) -> int:
            prepared = schedule(net, stimulus_for(scenario_write_read(1, trips), cfg))
            lookups.clear()
            trace = run_until(prepared, (trips + 2) * trip_duration(cfg), BiasPoint.of(ratio))
            assert trace.events
            return len(lookups)

        # the first run at each bias pins the cells; more trips add no lookup
        assert count(1, "0.9") == count(8, "0.95") > 0
        # a bias already pinned on this netlist is looked up no more
        assert count(8, "0.9") == 0

    def test_repeat_runs_at_one_bias_give_equal_traces(self):
        cfg = SimConfig(frequency_hz=100 * 10**9, num_addresses=3)
        prepared = schedule(build_controller(cfg), stimulus_for(scenario_write_read(1, 3), cfg))
        first = run_until(prepared, 5 * trip_duration(cfg), BiasPoint.of("0.5"))
        again = run_until(prepared, 5 * trip_duration(cfg), BiasPoint.of("0.5"))
        assert first == again and first.violations

    def test_pin_cache_stays_bounded(self):
        net = dro_netlist()
        prepared = schedule(net, [PulseEvent(0, "din"), PulseEvent(20000, "clk")])
        for i in range(200):
            run_until(prepared, 40000, BiasPoint(Fraction(50 + i, 100)))
        info = net._pinned.cache_info()
        assert 0 < info.currsize <= info.maxsize

    def test_the_per_bias_pins_hold_no_run_state(self):
        # one controller netlist, its pins reused across interleaved biases
        # (0.5 is outside every cell's range), against a fresh netlist per run
        cfg = SimConfig(frequency_hz=100 * 10**9, num_addresses=3)
        net = build_controller(cfg)
        stimulus = stimulus_for(scenario_write_read(1, 3), cfg)
        t_end = 5 * trip_duration(cfg)
        for ratio in ("0.9", "1.0", "1.1", "0.5", "1.0", "0.9", "0.5", "1.1", "0.9"):
            fresh = Netlist(net.cells, net.connections, net.external_inputs, net.observed)
            trace = run_until(schedule(net, stimulus), t_end, BiasPoint.of(ratio))
            assert trace == run_until(schedule(fresh, stimulus), t_end, BiasPoint.of(ratio))
            assert trace.events
        assert net._pinned.cache_info().hits >= 5


class TestNetlistCells:
    def test_cells_are_read_only(self):
        net = dro_netlist()
        with pytest.raises(TypeError):
            net.cells["d"] = FANOUT  # type: ignore[index]
        with pytest.raises(TypeError):
            del net.cells["d"]  # type: ignore[attr-defined]

    def test_cells_are_copied_from_the_mapping_given(self):
        given = {"d": DRO}
        net = Netlist(
            cells=given,
            connections=(Connection("din", "d.data"),),
            external_inputs=frozenset({"din"}),
            observed=("din",),
        )
        given["d"] = FANOUT
        assert net.cells["d"] is DRO

    def test_pickles_and_deep_copies_through_the_constructor(self):
        cfg = SimConfig(frequency_hz=100 * 10**9, num_addresses=3)
        stimulus = stimulus_for(scenario_write_read(), cfg)

        def write_read(net: Netlist) -> Trace:
            return run_until(schedule(net, stimulus), 5 * trip_duration(cfg), cfg.bias)

        net = build_controller(cfg)
        original = write_read(net)  # the wiring and the nominal pins are cached now
        for again in (pickle.loads(pickle.dumps(net)), copy.deepcopy(net)):
            assert again == net and again is not net
            assert "_wiring" not in vars(again) and "_pinned" not in vars(again)
            with pytest.raises(TypeError):
                again.cells["merger"] = FANOUT  # type: ignore[index]
            assert write_read(again) == original


class TestTaps:
    def test_plain_delay(self):
        net = Netlist(
            cells={},
            connections=(Connection("a", "b", delay_fs=100),),
            external_inputs=frozenset({"a"}),
            observed=("a", "b"),
        )
        trace = run(net, [(10, "a")])
        assert trace.pulses_on("b") == (110,)

    def test_offset_schedule_selects_by_entry_time(self):
        net = Netlist(
            cells={},
            connections=(
                Connection("a", "b", delay_fs=100, offset_schedule=((0, 0), (50, 25), (200, -30))),
            ),
            external_inputs=frozenset({"a"}),
            observed=("b",),
        )
        trace = run(net, [(10, "a"), (50, "a"), (199, "a"), (200, "a")])
        assert trace.pulses_on("b") == (110, 175, 270, 324)

    def test_pulse_before_first_schedule_entry_gets_no_offset(self):
        net = Netlist(
            cells={},
            connections=(Connection("a", "b", delay_fs=100, offset_schedule=((20, 5),)),),
            external_inputs=frozenset({"a"}),
            observed=("b",),
        )
        trace = run(net, [(10, "a")])
        assert trace.pulses_on("b") == (110,)

    def test_nonpositive_effective_delay_refused(self):
        net = Netlist(
            cells={},
            connections=(Connection("a", "b", delay_fs=100, offset_schedule=((0, -100),), is_loop=True),),
            external_inputs=frozenset({"a"}),
            observed=("b",),
        )
        with pytest.raises(FluxloopError, match="effective delay must stay positive"):
            run(net, [(10, "a")])

    @pytest.mark.parametrize("line, dst", [("a", "b"), ("w", "v")])
    def test_refused_tap_names_its_own_lines(self, line, dst):
        # a is walked from the stimulus and w popped from the heap, each after
        # pulses on other lines, so a stale line name would show
        net = Netlist(
            cells={},
            connections=(
                Connection("z", "w", delay_fs=10),
                Connection("a", "b", delay_fs=100, offset_schedule=((50, -100 if line == "a" else 0),), is_loop=True),
                Connection("w", "v", delay_fs=100, offset_schedule=((50, -100 if line == "w" else 0),), is_loop=True),
            ),
            external_inputs=frozenset({"a", "z"}),
            observed=("b", "v"),
        )
        with pytest.raises(FluxloopError, match=f"^tap {line} -> {dst}: effective delay must stay positive"):
            run(net, [(0, "z"), (20, "z"), (60, "a"), (70, "z")])

    def test_runaway_feedback_is_bounded(self):
        # a fanout whose outputs both re-enter its input at slightly
        # different delays doubles the pulse count every pass
        net = Netlist(
            cells={"f": FANOUT},
            connections=(
                Connection("x", "f.in"),
                Connection("f.out_a", "la"),
                Connection("f.out_b", "lb"),
                Connection("la", "x", delay_fs=100, is_loop=True),
                Connection("lb", "x", delay_fs=101, is_loop=True),
            ),
            external_inputs=frozenset({"x"}),
            observed=("x",),
        )
        with pytest.raises(RunawayQueueError, match="runaway feedback"):
            run(net, [(0, "x")], max_events=1000)


class TestStimulusMerge:
    """The kernel walks the sorted stimulus and merges it with the emitted pulses."""

    def test_emission_onto_a_pending_stimulus_pulse_is_processed_once(self):
        # d releases onto x at 25000, where the stimulus also pulses x
        net = Netlist(
            cells={"d": DRO},
            connections=(
                Connection("din", "d.data"),
                Connection("clk", "d.clock"),
                Connection("d.out", "x"),
                Connection("x", "y", delay_fs=1000),
            ),
            external_inputs=frozenset({"din", "clk", "x"}),
            observed=("x", "y"),
        )
        trace = run(net, [(0, "din"), (20000, "clk"), (10000, "x"), (25000, "x")])
        assert [(e.time_fs, e.line) for e in trace.events] == [(10000, "x"), (11000, "y"), (25000, "x"), (26000, "y")]
        assert not trace.violations

    def test_emission_onto_a_processed_stimulus_pulse_is_dropped(self):
        # (100, "a") is walked before (100, "z"), whose zero-delay fanout
        # emits onto a at the same instant
        net = Netlist(
            cells={"f": CellParams(kind=CellKind.FANOUT, prop_delay_fs=0)},
            connections=(
                Connection("z", "f.in"),
                Connection("f.out_a", "a"),
                Connection("f.out_b", "b"),
                Connection("a", "c", delay_fs=50),
            ),
            external_inputs=frozenset({"a", "z"}),
            observed=("a", "b", "c", "z"),
        )
        trace = run(net, [(100, "a"), (100, "z"), (300, "z")])
        assert [(e.time_fs, e.line) for e in trace.events] == [
            (100, "a"), (100, "b"), (100, "z"), (150, "c"), (300, "a"), (300, "b"), (300, "z"), (350, "c"),
        ]
        assert trace_to_vcd(trace).endswith(
            '#0\n0!\n0"\n0#\n0$\n#100\n1!\n1"\n1$\n#150\n1#\n#300\n0!\n0"\n0$\n#350\n0#\n'
        )

    def test_stimulus_alone_over_the_bound_is_refused(self):
        pulses = [(0, "din"), (20000, "clk"), (30000, "din")]
        with pytest.raises(RunawayQueueError, match="stimulus of 3 pulses exceeds the bound of 2 events"):
            run(dro_netlist(), pulses, max_events=2)
        # stimulus beyond t_end still counts, as every pulse is pending at t=0
        with pytest.raises(RunawayQueueError):
            run(dro_netlist(), pulses, t_end=1, max_events=2)
        assert run(dro_netlist(), pulses, max_events=3).pulses_on("out") == (25000,)

    def test_the_bound_counts_the_stimulus_not_yet_walked(self):
        # after the first pulse on z: two fanout emissions in flight plus one
        # stimulus pulse pending make three, over a bound of two
        net = Netlist(
            cells={"f": FANOUT},
            connections=(Connection("z", "f.in"), Connection("f.out_a", "a"), Connection("f.out_b", "b")),
            external_inputs=frozenset({"z"}),
            observed=("a", "b"),
        )
        with pytest.raises(RunawayQueueError, match="event queue exceeded 2 events"):
            run(net, [(0, "z"), (10000, "z")], max_events=2)
        assert run(net, [(0, "z"), (10000, "z")], max_events=3).pulses_on("a") == (500, 10500)

    def test_a_release_equal_to_a_pending_pulse_counts_until_it_merges(self):
        # a fanout drives x and y, and each of two mergers takes both and
        # drives q: after y pops, four releases onto q at 1000 are pending
        merger = CellParams(kind=CellKind.MERGER, prop_delay_fs=500, min_separation_fs=2000)
        net = Netlist(
            cells={"f": FANOUT, "m1": merger, "m2": merger},
            connections=(
                Connection("z", "f.in"),
                Connection("f.out_a", "x"),
                Connection("f.out_b", "y"),
                Connection("x", "m1.in0"),
                Connection("y", "m1.in1"),
                Connection("x", "m2.in0"),
                Connection("y", "m2.in1"),
                Connection("m1.out", "q"),
                Connection("m2.out", "q"),
            ),
            external_inputs=frozenset({"z"}),
            observed=("q",),
        )
        with pytest.raises(RunawayQueueError, match="event queue exceeded 3 events"):
            run(net, [(0, "z")], max_events=3)
        trace = run(net, [(0, "z")], max_events=4)
        assert trace.pulses_on("q") == (1000,)
        assert [(v.cell, v.kind) for v in trace.violations] == [("m1", ViolationKind.ELECTRICAL), ("m2", ViolationKind.ELECTRICAL)]

    def test_recorded_pulses_are_pulse_events(self):
        trace = run(dro_netlist(), [(0, "din"), (20000, "clk")])
        assert trace.events == ((0, "din"), (20000, "clk"), (25000, "out"))
        assert all(type(e) is PulseEvent for e in trace.events)


#: the outputs a release from each input port lands on, written out here
#: (not read from ``cells.RELEASES``) so the reference shares no table with the kernel
REFERENCE_RELEASES = {
    "data": (), "clock": ("out",), "clock0": ("out0",), "clock1": ("out1",),
    "in0": ("out",), "in1": ("out",), "in": ("out_a", "out_b"),
}


# The reference's own cell transitions, written from the cells' description
# and sharing no code with the kernel's: each takes the cell pinned at the
# run's bias, appends any violation and says whether the cell releases.


class CellState:
    """One cell's state in the reference run."""

    def __init__(self) -> None:
        self.stored = False
        self.last_data_fs: int | None = None
        self.last_clock_fs: int | None = None
        self.last_in_fs: dict[str, int] = {}  # a merger's last arrival per input


def store_step(cell: str, params, state: CellState, port: str, t: int, violations: list) -> bool:
    last = state.last_clock_fs
    state.stored = True
    state.last_data_fs = t
    if last is not None and 0 <= t - last < params.hold_fs:
        violations.append(TimingViolation(cell, ViolationKind.HOLD, t, f"data {t - last} fs after clock (hold {params.hold_fs} fs)"))
    return False


def release_step(cell: str, params, state: CellState, port: str, t: int, violations: list) -> bool:
    last = state.last_data_fs
    if last is not None and 0 <= t - last < params.setup_fs:
        violations.append(TimingViolation(cell, ViolationKind.SETUP, t, f"{port} {t - last} fs after data (setup {params.setup_fs} fs)"))
    state.last_clock_fs = t
    released, state.stored = state.stored, False
    return released


def merger_step(cell: str, params, state: CellState, port: str, t: int, violations: list) -> bool:
    last = state.last_in_fs.get({"in0": "in1", "in1": "in0"}[port])
    state.last_in_fs[port] = t
    if last is not None and 0 <= t - last < params.min_separation_fs:
        detail = f"inputs {t - last} fs apart (min separation {params.min_separation_fs} fs)"
        violations.append(TimingViolation(cell, ViolationKind.ELECTRICAL, t, detail))
    return True


def fanout_step(cell: str, params, state: CellState, port: str, t: int, violations: list) -> bool:
    return True


def reference_step(kind: CellKind, port: str):
    if kind is CellKind.MERGER:
        return merger_step
    if kind is CellKind.FANOUT:
        return fanout_step
    return store_step if port == "data" else release_step


def reference_run(net: Netlist, stimulus: list[tuple[int, str]], t_end: int, bias: BiasPoint) -> tuple[tuple, tuple]:
    """The kernel's contract, written naively: one heap of (t, line) keys
    holding every pulse, and every key ever queued remembered."""
    pins = net.at_bias(bias)
    states = {name: CellState() for name in net.cells}
    heap = sorted(set(stimulus))
    seen = set(heap)
    events, violations = [], list(pins.violations)

    def push(key: tuple[int, str]) -> None:
        if key not in seen:
            seen.add(key)
            heappush(heap, key)

    while heap and heap[0][0] < t_end:
        t, line = heappop(heap)
        if line in net.observed:
            events.append((t, line))
        for cell, port in sorted(c.dst.split(".") for c in net.connections if c.src == line and "." in c.dst):
            if reference_step(net.cells[cell].kind, port)(cell, pins.cells[cell], states[cell], port, t, violations):
                for out in REFERENCE_RELEASES[port]:
                    for c in net.connections:
                        if c.src == f"{cell}.{out}":
                            push((t + pins.cells[cell].prop_delay_fs, c.dst))
        for c in net.connections:
            if c.src == line and "." not in c.dst:
                extra = [offset for start, offset in c.offset_schedule if start <= t]
                push((t + c.delay_fs + (extra[-1] if extra else 0), c.dst))
    return tuple(sorted(events)), tuple(violations)


delays = st.integers(0, 6).map(lambda k: 500 * k)
instants = st.integers(0, 40).map(lambda k: 500 * k)


def stimuli(lines: tuple[str, ...]):
    return st.sets(st.tuples(instants, st.sampled_from(lines)), max_size=14).map(sorted)


def dro_net(prop: int, setup: int, hold: int) -> Netlist:
    return Netlist(
        cells={"d": CellParams(kind=CellKind.DRO, prop_delay_fs=prop, setup_fs=setup, hold_fs=hold)},
        connections=dro_netlist().connections,
        external_inputs=frozenset({"din", "clk"}),
        observed=("din", "clk", "out"),
    )


def fanout_net(fanout: int, merger: int) -> Netlist:
    # a is driven by the stimulus, the fanout and the merger (a contested
    # line), and sorts before the lines that make them emit onto it
    return Netlist(
        cells={
            "f": CellParams(kind=CellKind.FANOUT, prop_delay_fs=fanout),
            "m": CellParams(kind=CellKind.MERGER, prop_delay_fs=merger, min_separation_fs=1000),
        },
        connections=(
            Connection("z", "f.in"),
            Connection("f.out_a", "a"),
            Connection("f.out_b", "b"),
            Connection("a", "c", delay_fs=50),
            Connection("p", "m.in0"),
            Connection("z", "m.in1"),
            Connection("m.out", "a"),
        ),
        external_inputs=frozenset({"a", "p", "z"}),
        observed=("a", "b", "c", "p", "z"),
    )


def loop_net(prop: int, setup: int, loop: int, jitter: list[tuple[int, int]]) -> Netlist:
    # the DRO's release re-enters its own data line through a jittered tap
    return Netlist(
        cells={"d": CellParams(kind=CellKind.DRO, prop_delay_fs=prop, setup_fs=setup, hold_fs=setup)},
        connections=(
            Connection("x", "d.data"),
            Connection("clk", "d.clock"),
            Connection("d.out", "y"),
            Connection("y", "x", delay_fs=loop, offset_schedule=tuple(sorted(jitter)), is_loop=True),
        ),
        external_inputs=frozenset({"x", "clk"}),
        observed=("clk", "x", "y"),
    )


#: What a fold netlist's fanout output lands on: a line seen in the trace, one
#: a tap reads (to an observed line that feeds the merger back), or one nothing sees.
FANOUT_ROLES = ("observed", "tapped", "dead")


def fold_net(dro: int, merger: int, fanout: int, role_a: str, role_b: str) -> Netlist:
    # d and m both release onto mid, an internal, unobserved, untapped line only f reads
    connections = [
        Connection("din", "d.data"),
        Connection("clk", "d.clock"),
        Connection("p", "m.in0"),
        Connection("c", "m.in1"),
        Connection("d.out", "mid"),
        Connection("m.out", "mid"),
        Connection("mid", "f.in"),
        Connection("f.out_a", "xa"),
        Connection("f.out_b", "xb"),
    ]
    roles = {"xa": role_a, "xb": role_b}
    connections += [Connection(line, "c", delay_fs=250, is_loop=True) for line, role in roles.items() if role == "tapped"]
    return Netlist(
        cells={
            "d": CellParams(kind=CellKind.DRO, prop_delay_fs=dro, setup_fs=1000, hold_fs=500),
            "m": CellParams(kind=CellKind.MERGER, prop_delay_fs=merger, min_separation_fs=1000),
            "f": CellParams(kind=CellKind.FANOUT, prop_delay_fs=fanout),
        },
        connections=tuple(connections),
        external_inputs=frozenset({"din", "clk", "p"}),
        observed=("c", "clk", "din", "p") + tuple(line for line, role in roles.items() if role == "observed"),
    )


def fanout_loop(first: int, second: int, third: int) -> Netlist:
    # each fanout's input line but the first is fanout-only, and the third
    # fanout drives the second's input again: folds chain and cycle
    def fanout(delay: int) -> CellParams:
        return CellParams(kind=CellKind.FANOUT, prop_delay_fs=delay)

    return Netlist(
        cells={"f1": fanout(first), "f2": fanout(second), "f3": fanout(third)},
        connections=(
            Connection("z", "f1.in"),
            Connection("f1.out_a", "l1"),
            Connection("f1.out_b", "b"),
            Connection("l1", "f2.in"),
            Connection("f2.out_a", "l2"),
            Connection("f2.out_b", "c"),
            Connection("l2", "f3.in"),
            Connection("f3.out_a", "a"),
            Connection("f3.out_b", "l1", is_loop=True),
        ),
        external_inputs=frozenset({"z"}),
        observed=("a", "b", "c", "z"),
    )


class TestKernelMatchesReference:
    """run_until against the naive kernel above, on drawn delays and stimuli."""

    @staticmethod
    def check(net: Netlist, stimulus: list[tuple[int, str]], t_end: int, bias: BiasPoint = NOMINAL_BIAS) -> None:
        trace = run_until(schedule(net, [PulseEvent(t, line) for t, line in stimulus]), t_end, bias)
        assert (trace.events, trace.violations) == reference_run(net, stimulus, t_end, bias)

    @settings(max_examples=40)
    @given(delays, delays, delays, stimuli(("din", "clk")), instants)
    def test_dro(self, prop, setup, hold, stimulus, t_end):
        self.check(dro_net(prop, setup, hold), stimulus, t_end)

    @settings(max_examples=40)
    @given(delays, delays, stimuli(("a", "p", "z")), instants)
    # the merger's a is processed before the fanout emits onto it again
    @example(0, 0, [(500, "p"), (500, "z")], 1000)
    # three releases from t=0 and a stimulus pulse land on a at 500
    @example(500, 500, [(0, "p"), (0, "z"), (500, "a")], 2000)
    def test_zero_delay_fanout_onto_a_contested_line(self, fanout, merger, stimulus, t_end):
        self.check(fanout_net(fanout, merger), stimulus, t_end)

    @settings(max_examples=40)
    @given(
        delays,
        delays,
        st.integers(1, 8).map(lambda k: 1000 * k),
        st.lists(st.tuples(instants, st.integers(-1, 2).map(lambda k: 400 * k)), max_size=3),
        stimuli(("x", "clk")),
        instants,
    )
    def test_jittered_tap_loop(self, prop, setup, loop, jitter, stimulus, t_end):
        self.check(loop_net(prop, setup, loop, jitter), stimulus, t_end)

    @settings(max_examples=60, deadline=None)
    @given(delays, delays, delays, st.sampled_from(FANOUT_ROLES), st.sampled_from(FANOUT_ROLES),
           stimuli(("din", "clk", "p")), instants)
    # folded: d's release and a merger collision; the fanout feeds the merger back through c
    @example(500, 1000, 500, "tapped", "observed", [(0, "din"), (500, "clk"), (1500, "p")], 8000)
    # zero delays keep the wired routes
    @example(0, 0, 0, "tapped", "dead", [(0, "din"), (0, "p"), (500, "clk"), (500, "p")], 4000)
    def test_fold_of_a_fanout_only_line(self, dro, merger, fanout, role_a, role_b, stimulus, t_end):
        self.check(fold_net(dro, merger, fanout, role_a, role_b), stimulus, t_end)

    @settings(max_examples=30, deadline=None)
    @given(delays, delays, delays, stimuli(("z",)), st.integers(0, 8).map(lambda k: 500 * k))
    def test_folds_through_a_fanout_chain_and_cycle(self, first, second, third, stimulus, t_end):
        self.check(fanout_loop(first, second, third), stimulus, t_end)

    @settings(max_examples=25, deadline=None)
    @given(
        st.dictionaries(st.sampled_from(sorted(CELL_NAMES)), delays.map(lambda d: {"prop_delay": d}), max_size=3),
        st.lists(
            st.builds(
                TripOp,
                st.none() | st.tuples(st.integers(0, 2), st.integers(0, 1)),
                st.sets(st.integers(0, 2)).map(tuple),
            ),
            min_size=1,
            max_size=4,
        ),
        st.sampled_from(["0.5", "0.9", "1", "1.1"]),
    )
    def test_stock_controller(self, overrides, trips, ratio):
        cfg = SimConfig(frequency_hz=100 * 10**9, num_addresses=3, cell_overrides=overrides)
        stimulus = stimulus_for(MemoryProgram(tuple(trips)), cfg)
        self.check(build_controller(cfg), stimulus, (len(trips) + 2) * trip_duration(cfg), BiasPoint.of(ratio))


def _queued_lines(monkeypatch, net: Netlist, stimulus, t_end: int, bias: BiasPoint) -> set[str]:
    """The lines of every key a run pushes onto its heap."""
    pushed = []

    def recording(heap: list[int], key: int) -> None:
        pushed.append(key)
        heappush(heap, key)

    monkeypatch.setattr(engine, "heappush", recording)
    run_until(schedule(net, stimulus), t_end, bias)
    return {net.lines[key % len(net.lines)] for key in pushed}


#: The controller's lines no run can see: one only the fanout reads, and two nothing reads.
UNSEEN = {"merged", "read_discard", "recirc_discard"}


@pytest.mark.parametrize("overrides, queued", [({}, set()), ({"fanout": {"prop_delay": 0}}, UNSEEN)])
def test_a_controller_run_queues_no_pulse_it_cannot_see(monkeypatch, overrides, queued):
    cfg = SimConfig(frequency_hz=100 * 10**9, num_addresses=3, cell_overrides=overrides)
    # an overwritten 1 leaves on recirc_discard, and a 0 read before an unread address on read_discard
    program = MemoryProgram((TripOp(write=(1, 1), reads=(0,)), TripOp(write=(1, 1), reads=(1,)), TripOp(reads=(0, 1))))
    net = build_controller(cfg)
    assert net.at_bias(cfg.bias).zero_delay == bool(overrides)
    lines = _queued_lines(monkeypatch, net, stimulus_for(program, cfg), 5 * trip_duration(cfg), cfg.bias)
    # a zero delay keeps the wired routes: the fanout's input and both discard lines are queued
    assert lines & UNSEEN == queued and {"loop_data_in", "read_clock", "read_data"} <= lines


def fanout_tree(root: int) -> Netlist:
    """A fanout whose two outputs are fanout-only lines: one fanout drives
    two observed lines, the other one observed line and a dead one."""
    cell = CellParams(kind=CellKind.FANOUT, prop_delay_fs=500)
    return Netlist(
        cells={"f1": cell._replace(prop_delay_fs=root), "f2": cell, "f3": cell},
        connections=(
            Connection("z", "f1.in"),
            Connection("f1.out_a", "m1"),
            Connection("f1.out_b", "m2"),
            Connection("m1", "f2.in"),
            Connection("m2", "f3.in"),
            Connection("f2.out_a", "a"),
            Connection("f2.out_b", "b"),
            Connection("f3.out_a", "c"),
            Connection("f3.out_b", "dead"),
        ),
        external_inputs=frozenset({"z"}),
        observed=("a", "b", "c", "z"),
    )


@pytest.mark.parametrize("root, bound", [(500, 3), (0, 4)])
def test_max_events_counts_the_pulses_a_run_can_see(root, bound):
    # folded, z's pulse queues a, b and c at once; a zero delay keeps the
    # wired routes, where m2 waits beside a and b, and then c beside the dead line
    net = fanout_tree(root)
    trace = run(net, [(0, "z")], max_events=bound)
    assert trace.events == ((0, "z"), (root + 500, "a"), (root + 500, "b"), (root + 500, "c"))
    with pytest.raises(RunawayQueueError, match=f"^event queue exceeded {bound - 1} events"):
        run(net, [(0, "z")], max_events=bound - 1)


dro_runs = st.builds(lambda p, s, h, stimulus, t_end: (dro_net(p, s, h), stimulus, t_end, NOMINAL_BIAS),
                     delays, delays, delays, stimuli(("din", "clk")), instants)
fanout_runs = st.builds(lambda f, m, stimulus, t_end: (fanout_net(f, m), stimulus, t_end, NOMINAL_BIAS),
                        delays, delays, stimuli(("a", "p", "z")), instants)
loop_runs = st.builds(
    lambda p, s, loop, jitter, stimulus, t_end: (loop_net(p, s, loop, jitter), stimulus, t_end, NOMINAL_BIAS),
    delays,
    delays,
    st.integers(1, 8).map(lambda k: 1000 * k),
    st.lists(st.tuples(instants, st.integers(-1, 2).map(lambda k: 400 * k)), max_size=3),
    stimuli(("x", "clk")),
    instants,
)


def _controller_run(trips: list[TripOp], ratio: str) -> tuple:
    cfg = SimConfig(frequency_hz=100 * 10**9, num_addresses=3)
    stimulus = stimulus_for(MemoryProgram(tuple(trips)), cfg)
    return build_controller(cfg), stimulus, (len(trips) + 2) * trip_duration(cfg), BiasPoint.of(ratio)


controller_runs = st.builds(
    _controller_run,
    st.lists(
        st.builds(TripOp, st.none() | st.tuples(st.integers(0, 2), st.integers(0, 1)), st.sets(st.integers(0, 2)).map(tuple)),
        min_size=1,
        max_size=4,
    ),
    st.sampled_from(["0.5", "0.9", "1", "1.1"]),
)


#: Zero delays (the trace sorted at the end) with a merger violation.
ZERO_DELAY_RUN = (fanout_net(0, 0), [(0, "z"), (500, "p"), (500, "z")], 2000, NOMINAL_BIAS)


def _traced(net: Netlist, stimulus: list[tuple[int, str]], t_end: int, bias: BiasPoint) -> Trace:
    return run_until(schedule(net, [PulseEvent(t, line) for t, line in stimulus]), t_end, bias)


class TestExportsMatchReference:
    """The key-based exports against ``_oracle``'s renderers of ``Trace.events``,
    on kernel traces drawn as ``TestKernelMatchesReference`` draws them."""

    @settings(max_examples=60, deadline=None)
    @given(dro_runs | fanout_runs | loop_runs | controller_runs)
    # and a controller run whose cells all fail electrically at t=0
    @example(ZERO_DELAY_RUN)
    @example(_controller_run([TripOp(write=(1, 1), reads=(1,)), TripOp(reads=(0, 1))], "0.5"))
    def test_exports_match_the_event_renderers(self, drawn):
        trace = _traced(*drawn)
        assert trace_to_csv(trace) == _oracle.trace_to_csv(trace)
        assert trace_to_vcd(trace) == _oracle.trace_to_vcd(trace)

    def test_the_zero_delay_example_runs_into_a_violation(self):
        net, _, _, bias = ZERO_DELAY_RUN
        assert net.at_bias(bias).zero_delay and _traced(*ZERO_DELAY_RUN).violations


def test_the_simulate_path_derives_no_events():
    cfg = SimConfig(frequency_hz=100 * 10**9, num_addresses=3)
    program = MemoryProgram((TripOp(write=(1, 1), reads=(1, 2)), TripOp(write=(2, 1), reads=(1,)), TripOp(reads=(2,))))
    result = run_program(program, cfg)
    trace = result.trace
    trace_to_vcd(trace)
    trace_to_csv(trace)
    assert result.reads == {(0, 1): 1, (0, 2): 0, (1, 1): 1, (2, 2): 1}
    assert "events" not in vars(trace)
    reference = reference_run(build_controller(cfg), stimulus_for(program, cfg), trace.t_end_fs, cfg.bias)
    assert (trace.events, trace.violations) == reference
    assert "events" in vars(trace) and trace.events is trace.events


class TestPulseEvent:
    def test_equality_and_hash_follow_the_fields(self):
        a = PulseEvent(10, "x")
        assert a == PulseEvent(10, "x") and hash(a) == hash(PulseEvent(10, "x"))
        assert a != PulseEvent(10, "y") and a != PulseEvent(11, "x")
        assert a == (10, "x") and hash(a) == hash((10, "x"))
        assert len({a, PulseEvent(10, "x"), PulseEvent(11, "x")}) == 2
        assert (a.time_fs, a.line) == (10, "x")

    def test_is_immutable(self):
        a = PulseEvent(10, "x")
        with pytest.raises(AttributeError):
            a.time_fs = 5  # type: ignore[misc]
        with pytest.raises(AttributeError):
            a.note = "extra"  # type: ignore[attr-defined]
        with pytest.raises(TypeError):
            a[0] = 5  # type: ignore[index]

    def test_orders_by_time_then_line(self):
        pulses = [PulseEvent(5, "b"), PulseEvent(7, "a"), PulseEvent(5, "a"), PulseEvent(0, "z")]
        assert sorted(pulses) == [PulseEvent(0, "z"), PulseEvent(5, "a"), PulseEvent(5, "b"), PulseEvent(7, "a")]
        assert PulseEvent(5, "b") < PulseEvent(7, "a") and PulseEvent(5, "a") <= PulseEvent(5, "a")
        assert max(pulses) == PulseEvent(7, "a")

    def test_pickles_through_the_validating_constructor(self):
        a = PulseEvent(10, "x")
        again = pickle.loads(pickle.dumps(a))
        assert again == a and type(again) is PulseEvent
        assert repr(a) == "PulseEvent(time_fs=10, line='x')"


class TestTraceQueries:
    def test_query_pulses_window_is_half_open(self):
        trace = run(dro_netlist(), [(0, "din"), (20000, "clk"), (30000, "din"), (50000, "clk")])
        assert trace.pulses_on("out") == (25000, 55000)
        assert query_pulses(trace, "out", 25000, 55000) == (25000,)
        assert query_pulses(trace, "out", 0, 25000) == ()
        with pytest.raises(ValueError, match="t0 < t1"):
            query_pulses(trace, "out", 10, 10)

    def test_unobserved_line_rejected(self):
        trace = run(dro_netlist(), [(0, "din")])
        with pytest.raises(UnknownLineError, match="not observed"):
            trace.pulses_on("d.out")

    def test_events_are_in_time_then_line_order_with_zero_delay_cells(self):
        # a zero-delay fanout emits at the instant being processed, onto
        # lines that sort before its input line
        net = Netlist(
            cells={"f": CellParams(kind=CellKind.FANOUT, prop_delay_fs=0)},
            connections=(
                Connection("z", "f.in"),
                Connection("f.out_a", "a"),
                Connection("f.out_b", "b"),
            ),
            external_inputs=frozenset({"z"}),
            observed=("a", "b", "z"),
        )
        trace = run(net, [(100, "z"), (300, "z")])
        assert [(e.time_fs, e.line) for e in trace.events] == [
            (100, "a"), (100, "b"), (100, "z"), (300, "a"), (300, "b"), (300, "z"),
        ]
        assert trace_to_vcd(trace).endswith('#0\n0!\n0"\n0#\n#100\n1!\n1"\n1#\n#300\n0!\n0"\n0#\n')

    def test_reruns_are_identical(self):
        pulses = [(0, "din"), (20000, "clk"), (30000, "din"), (50000, "clk")]
        assert run(dro_netlist(), pulses) == run(dro_netlist(), pulses)

    def test_a_hand_built_trace_refuses_a_pulse_on_an_unobserved_line(self):
        with pytest.raises(UnknownLineError, match="line 'c' is not observed"):
            Trace.from_events((PulseEvent(0, "a"), PulseEvent(10, "c")), (), ("a", "b"), 100, NOMINAL_BIAS)


class TestExports:
    TRACE = Trace.from_events(
        events=(PulseEvent(0, "a"), PulseEvent(1500, "b")),
        violations=(
            TimingViolation("m", ViolationKind.ELECTRICAL, 1500, "inputs 1000 fs apart (min separation 2000 fs)"),
            TimingViolation("d", ViolationKind.SETUP, 2000, 'needs "quoting", badly'),
        ),
        observed=("a", "b"),
        t_end_fs=10000,
        bias=NOMINAL_BIAS,
    )

    def test_trace_to_csv(self):
        assert trace_to_csv(self.TRACE) == (
            "time_fs,line,kind,detail\n"
            "0,a,pulse,\n"
            "1500,b,pulse,\n"
            "1500,m,violation,ELECTRICAL: inputs 1000 fs apart (min separation 2000 fs)\n"
            '2000,d,violation,"SETUP: needs ""quoting"", badly"\n'
        )

    def test_trace_to_vcd(self):
        trace = Trace.from_events(
            events=(PulseEvent(0, "a"), PulseEvent(1500, "b"), PulseEvent(2000, "a")),
            violations=(),
            observed=("a", "b"),
            t_end_fs=10000,
            bias=NOMINAL_BIAS,
        )
        assert trace_to_vcd(trace) == (
            "$timescale 1fs $end\n"
            "$scope module fluxloop $end\n"
            "$var wire 1 ! a $end\n"
            '$var wire 1 " b $end\n'
            "$upscope $end\n"
            "$enddefinitions $end\n"
            "#0\n"
            "1!\n"
            '0"\n'
            "#1500\n"
            '1"\n'
            "#2000\n"
            "0!\n"
        )

    def test_vcd_line_budget(self):
        trace = Trace.from_events(
            events=(),
            violations=(),
            observed=tuple(f"l{i}" for i in range(95)),
            t_end_fs=0,
            bias=NOMINAL_BIAS,
        )
        with pytest.raises(FluxloopError, match="too many observed lines"):
            trace_to_vcd(trace)


def _chunked_trace() -> Trace:
    """Pulses 10 fs apart on ``a`` over three export chunks and more, with a
    ``b`` pulse sharing an instant across each of the VCD's first two chunk
    boundaries and a violation on each of the CSV's."""
    shared = (EXPORT_CHUNK, 2 * EXPORT_CHUNK)  # the VCD's chunks start after the one t=0 pulse
    events = [PulseEvent(10 * i, "a") for i in range(3 * EXPORT_CHUNK + 5) if i - 1 not in shared]
    events += [PulseEvent(10 * i, "b") for i in shared]
    boundaries = [10 * (i - 1) for i in shared]  # the last instant of each of the CSV's first two chunks
    violations = [
        TimingViolation("m", ViolationKind.ELECTRICAL, 0, "bias 3/2 outside operating range [1/2, 6/5]"),
        *(TimingViolation("d", ViolationKind.SETUP, t, f'data 1 fs "late" at {t}') for t in boundaries),
        TimingViolation("d", ViolationKind.HOLD, 10 * EXPORT_CHUNK, "clock 2 fs apart"),
        TimingViolation("m", ViolationKind.ELECTRICAL, 10**9, "after every pulse"),
    ]
    return Trace.from_events(events, violations, ("a", "b"), 10**9, NOMINAL_BIAS)


class _Writes(io.StringIO):
    """A text file that keeps each write's length."""

    def __init__(self) -> None:
        super().__init__()
        self.sizes: list[int] = []

    def write(self, text: str) -> int:
        self.sizes.append(len(text))
        return super().write(text)


class TestStreamedExports:
    """``write_csv``/``write_vcd`` render and write ``EXPORT_CHUNK`` pulses at a time."""

    def test_the_chunked_trace_straddles_the_chunk_boundaries(self):
        keys, n = _chunked_trace().keys, 2
        assert len(keys) > 3 * EXPORT_CHUNK
        for boundary in (EXPORT_CHUNK, 2 * EXPORT_CHUNK):
            # the VCD's chunks start at key 1: the keys either side of its boundary share an instant
            assert keys[boundary] // n == keys[boundary + 1] // n
            # a violation at the instant that ends a CSV chunk is written on its boundary
            assert keys[boundary - 1] // n < keys[boundary] // n

    @pytest.mark.parametrize("write, render", [(write_csv, _oracle.trace_to_csv), (write_vcd, _oracle.trace_to_vcd)])
    def test_writers_match_the_oracle_across_chunks(self, write, render):
        trace = _chunked_trace()
        file = _Writes()
        write(trace, file)
        assert file.getvalue() == render(trace)
        # the header, then one write per chunk of pulses
        assert len(file.sizes) == 1 + -(-len(trace.keys) // EXPORT_CHUNK)

    def test_a_csv_of_violations_alone_is_written(self):
        trace = Trace.from_events((), TestExports.TRACE.violations, ("a",), 10**4, NOMINAL_BIAS)
        write_csv(trace, file := io.StringIO())
        assert file.getvalue() == _oracle.trace_to_csv(trace)

    def test_the_vcd_line_budget_is_refused_before_a_write(self):
        trace = Trace.from_events((), (), tuple(f"l{i}" for i in range(95)), 0, NOMINAL_BIAS)
        file = _Writes()
        with pytest.raises(FluxloopError, match="too many observed lines"):
            write_vcd(trace, file)
        assert file.sizes == []

    def test_writing_a_long_trace_holds_a_fraction_of_its_document(self, tmp_path):
        # the store_stream workload's shape: 64 addresses, 200 trips of one write and 16 reads
        rng = random.Random(1)
        trips = tuple(TripOp((rng.randrange(64), rng.randrange(2)), tuple(sorted(rng.sample(range(64), 16))))
                      for _ in range(200))
        trace = run_program(MemoryProgram(trips), SimConfig(frequency_hz=100 * 10**9, num_addresses=64)).trace
        for write, export in ((write_vcd, trace_to_vcd), (write_csv, trace_to_csv)):
            size = len(export(trace))
            with open(tmp_path / "trace", "w") as file:
                tracemalloc.start()
                try:
                    write(trace, file)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            assert peak < size / 4, (write.__name__, peak, size)


def _run_peak(prop_delay_fs: int, pulses: int) -> int:
    """tracemalloc's peak over one run of a fanout fed ``pulses`` stimulus pulses."""
    net = Netlist(
        cells={"f": CellParams(kind=CellKind.FANOUT, prop_delay_fs=prop_delay_fs)},
        connections=(Connection("z", "f.in"), Connection("f.out_a", "a"), Connection("f.out_b", "b")),
        external_inputs=frozenset({"z"}),
        observed=("a", "b", "z"),
    )
    prepared = schedule(net, [PulseEvent(10 * i, "z") for i in range(pulses)])
    tracemalloc.start()
    try:
        trace = run_until(prepared, 10 * pulses, NOMINAL_BIAS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(trace.keys) == 3 * pulses and net.at_bias(NOMINAL_BIAS).zero_delay == (prop_delay_fs == 0)
    return peak


def test_a_zero_delay_run_keeps_only_the_current_instants_keys():
    # a zero-delay release lands at the current instant, never earlier, so the keys of past
    # instants are dropped; kept, they cost ~5 MB here (tracemalloc slows the run ~50x, hence 30k)
    zero, one = _run_peak(0, 30_000), _run_peak(1, 30_000)
    assert zero < one + 2**20, (zero, one)
