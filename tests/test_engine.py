"""Event kernel: netlist validation, scheduling, determinism, exports."""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction
from heapq import heappop, heappush

import pytest
from hypothesis import example, given, settings, strategies as st

import _oracle
from fluxloop import FluxloopError, SimConfig, build_controller, cells, run_program, scenario_write_read, stimulus_for
from fluxloop.cells import BiasDelayModel, CellKind, CellParams, CellState, TimingViolation, ViolationKind, stepper_for
from fluxloop.core import CELL_NAMES, NOMINAL_BIAS, BiasPoint, PulseEvent, trip_duration
from fluxloop.engine import (
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

    def test_recorded_pulses_are_pulse_events(self):
        trace = run(dro_netlist(), [(0, "din"), (20000, "clk")])
        assert trace.events == ((0, "din"), (20000, "clk"), (25000, "out"))
        assert all(type(e) is PulseEvent for e in trace.events)


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
            emitted, found = stepper_for(net.cells[cell].kind)(cell, pins.cells[cell], states[cell], port, t)
            violations += found
            for out, t_out in emitted:
                for c in net.connections:
                    if c.src == f"{cell}.{out}":
                        push((t_out, c.dst))
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
