"""Event kernel: netlist validation, scheduling, determinism, exports."""

from __future__ import annotations

import ast
import contextlib
import copy
import gc
import io
import json
import linecache
import pickle
import random
import re
import traceback
import tracemalloc
from fractions import Fraction
from heapq import heappop, heappush

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import _oracle
from fluxloop import (
    FluxloopError, SimConfig, build_controller, cells, cli, engine, memory, run_program, scenario_write_read,
    serialize_config, stimulus_for,
)
from fluxloop.cells import BiasDelayModel, CellKind, CellParams, TimingViolation, ViolationKind
from fluxloop.core import CELL_NAMES, NOMINAL_BIAS, exact_ratio, trip_duration
from fluxloop.engine import (
    EXPORT_CHUNK,
    Connection,
    DuplicatePulseError,
    Netlist,
    NetlistError,
    PreparedRun,
    RunawayQueueError,
    Trace,
    UnknownLineError,
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
    prepared = schedule(net, pulses)
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

    @pytest.mark.parametrize("wiring", [{"delay_fs": 500}, {"offset_schedule": ((0, 500),)}])
    def test_cell_output_wiring_carries_no_delay(self, wiring):
        with pytest.raises(NetlistError, match="^d.out -> y: wiring to or from a cell port must have zero delay and no schedule$"):
            Netlist(
                cells={"d": DRO},
                connections=(Connection("x", "d.data"), Connection("c", "d.clock"), Connection("d.out", "y", **wiring)),
                external_inputs=frozenset({"x", "c"}),
                observed=("y",),
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
        with pytest.raises(NetlistError, match=r"^line tap a -> b needs a positive delay \(got 0 fs\)$"):
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
        # d's output drives its own data line through port wiring alone
        with pytest.raises(NetlistError, match="^combinational cycle through 'd'; only a delayed tap may close a cycle$"):
            Netlist(
                cells={"d": DRO},
                connections=(Connection("x", "d.data"), Connection("d.out", "x")),
                external_inputs=frozenset(),
                observed=(),
            )

    def test_a_long_fanout_chain_builds_runs_and_refuses_a_cycle_at_its_far_end(self):
        # the cycle check walks a 2,000-cell chain without recursing per node
        size = 2000
        names = [f"f{i:04d}" for i in range(size)]
        lines = ["x", *(f"l{i:04d}" for i in range(1, size)), "y"]
        chain = tuple(
            conn for i, name in enumerate(names)
            for conn in (Connection(lines[i], f"{name}.in"), Connection(f"{name}.out_a", lines[i + 1]))
        )
        net = Netlist({name: FANOUT for name in names}, chain, frozenset({"x"}), ("x", "y"))
        trace = run_until(schedule(net, [(0, "x")]), size * 500 + 1, NOMINAL_BIAS)
        assert trace.events == ((0, "x"), (size * 500, "y"))
        # the last fanout's second output feeds l1990 back: the cycle f1990 -> l1991 -> ... -> f1999 -> l1990,
        # named by its least node
        closed = chain + (Connection(f"{names[-1]}.out_b", lines[size - 10]),)
        with pytest.raises(NetlistError, match="^combinational cycle through 'f1990'; only a delayed tap may close a cycle$"):
            Netlist({name: FANOUT for name in names}, closed, frozenset({"x"}), ("x", "y"))
        # closed through a tap instead, the same cycle is accepted
        Netlist({name: FANOUT for name in names}, chain + (Connection("y", lines[size - 10], delay_fs=100),), frozenset({"x"}), ("x", "y"))

    def test_a_line_named_like_its_cell_is_no_cycle(self):
        net = Netlist(
            cells={"d": DRO},
            connections=(Connection("x", "d.data"), Connection("c", "d.clock"), Connection("d.out", "d")),
            external_inputs=frozenset({"x", "c"}),
            observed=("d",),
        )
        assert _oracle.pulses_on(run(net, [(0, "x"), (20000, "c")]), "d") == (25000,)

    def test_tap_closed_cycle_is_allowed(self):
        # each clock releases the stored bit onto y, and the tap stores it again 100 fs later
        net = Netlist(
            cells={"d": DRO},
            connections=(
                Connection("x", "d.data"),
                Connection("clk", "d.clock"),
                Connection("d.out", "y"),
                Connection("y", "x", delay_fs=100),
            ),
            external_inputs=frozenset({"x", "clk"}),
            observed=("x", "y"),
        )
        trace = run(net, [(0, "x"), (20000, "clk"), (40000, "clk")], t_end=50000)
        assert trace.events == ((0, "x"), (25000, "y"), (25100, "x"), (45000, "y"), (45100, "x"))

    def test_dotted_cell_name_rejected(self):
        with pytest.raises(NetlistError, match="must not contain"):
            Netlist(cells={"a.b": DRO}, connections=(), external_inputs=frozenset(), observed=())

    @pytest.mark.parametrize("what, name", [
        ("line", "in put"), ("line", "a,b"), ("line", 'q"x'), ("line", "q\ny"), ("line", "tab\t"), ("line", ""),
        ("cell", "f f"), ("cell", "f,g"), ("cell", ""), ("cell", "f\x00"),
    ])
    def test_a_name_no_trace_format_can_carry_is_refused(self, what, name):
        # a CSV row takes a name as one unquoted field, a VCD $var as one word
        cell, z = (name, "z") if what == "cell" else ("f", name)
        with pytest.raises(NetlistError) as info:
            Netlist(
                cells={cell: FANOUT},
                connections=(Connection(z, f"{cell}.in"), Connection(f"{cell}.out_a", "a")),
                external_inputs=frozenset({z}),
                observed=("a",),
            )
        assert str(info.value) == f"{what} name {name!r} must be non-empty and printable, with no space, comma or double quote"

    @pytest.mark.parametrize("field", ["connections", "external_inputs", "observed"])
    def test_a_line_name_is_checked_wherever_it_appears(self, field):
        net = dro_netlist()
        bad = {"connections": net.connections + (Connection("out", "d x", delay_fs=10),),
               "external_inputs": net.external_inputs | {"d x"}, "observed": net.observed + ("d x",)}[field]
        with pytest.raises(NetlistError, match="^line name 'd x' must be non-empty"):
            net._replace(**{field: bad})

    def test_the_first_of_two_faults_is_the_one_raised(self):
        # the connections are checked in order: an unknown port on the first, a non-positive tap on the second
        connections = (Connection("x", "d.clk"), Connection("a", "b"))
        with pytest.raises(NetlistError, match="^cell 'd' \\(DRO\\) has no port 'clk'$"):
            Netlist(cells={"d": DRO}, connections=connections, external_inputs=frozenset(), observed=())
        with pytest.raises(NetlistError, match=r"^line tap a -> b needs a positive delay \(got 0 fs\)$"):
            Netlist(cells={"d": DRO}, connections=connections[::-1], external_inputs=frozenset(), observed=())


class TestSchedule:
    def test_rejects_unknown_line(self):
        with pytest.raises(UnknownLineError, match="not a declared external input"):
            schedule(dro_netlist(), [(0, "mystery")])

    def test_rejects_duplicates(self):
        with pytest.raises(DuplicatePulseError, match="duplicate pulse on 'din' at 5 fs"):
            schedule(dro_netlist(), [(5, "din"), (5, "din")])

    def test_rejects_a_negative_time(self):
        net = Netlist(cells={}, connections=(), external_inputs=frozenset({"x"}), observed=("x",))
        with pytest.raises(ValueError) as info:
            schedule(net, [(0, "x"), (-5000, "x")])
        assert str(info.value) == "pulse time must be non-negative, got -5000 fs on 'x'"

    def test_a_raw_key_at_a_negative_time_is_refused(self):
        # keyed t * 3 + rank over the sorted lines clk, din, out: -20 is din (rank 1) at -7 fs
        net = dro_netlist()
        with pytest.raises(ValueError) as info:
            PreparedRun(net, [3, -7 * 3 + 1])
        assert str(info.value) == "pulse time must be non-negative, got -7 fs on 'din'"

    def test_a_key_off_the_single_input_is_refused(self):
        # lines a, b, z: the kernel walks a key below z's rank as the end of the run,
        # so a key on a at 200 fs would end it before z's releases land at 600 fs
        net = Netlist(
            cells={"f": FANOUT},
            connections=(Connection("z", "f.in"), Connection("f.out_a", "a"), Connection("f.out_b", "b")),
            external_inputs=frozenset({"z"}),
            observed=("a", "b", "z"),
        )
        assert PreparedRun(net, [100 * 3 + 2]).keys == (302,)
        with pytest.raises(UnknownLineError) as info:
            PreparedRun(net, [100 * 3 + 2, 200 * 3 + 0])
        assert str(info.value) == "line 'a' is not a declared external input"

    def test_a_key_on_a_netlist_with_no_line_is_refused(self):
        net = Netlist(cells={}, connections=(), external_inputs=frozenset(), observed=())
        assert PreparedRun(net).keys == ()
        with pytest.raises(UnknownLineError, match="^the netlist declares no external input$"):
            PreparedRun(net, [0])

    def test_sorts_stimulus(self):
        prepared = schedule(dro_netlist(), [(10, "din"), (2, "clk")])
        # keyed t * 3 + rank over the sorted lines clk, din, out
        assert prepared.keys == (2 * 3 + 0, 10 * 3 + 1)


class TestRunUntil:
    def test_store_release_through_netlist(self):
        trace = run(dro_netlist(), [(0, "din"), (20000, "clk")])
        assert _oracle.pulses_on(trace, "out") == (25000,)
        assert not trace.failed

    def test_t_end_is_exclusive(self):
        net = dro_netlist()
        trace = run(net, [(0, "din"), (20000, "clk")], t_end=25000)
        assert _oracle.pulses_on(trace, "out") == ()
        trace = run(net, [(0, "din"), (20000, "clk")], t_end=25001)
        assert _oracle.pulses_on(trace, "out") == (25000,)

    def test_t_end_must_be_non_negative(self):
        with pytest.raises(ValueError, match="^t_end must be non-negative$"):
            run_until(schedule(dro_netlist(), [(0, "din")]), -1, NOMINAL_BIAS)

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
        assert _oracle.pulses_on(trace, "merged") == (1500,)
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
        assert _oracle.pulses_on(trace, "out") == (25000,)

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
        trace = run(net, [(0, "din"), (20000, "clk")], bias=exact_ratio(0.5))
        assert trace.failed
        v = trace.violations[0]
        assert (v.cell, v.kind, v.time_fs) == ("d", ViolationKind.ELECTRICAL, 0)
        assert v.detail == "bias 0.5 outside operating range [0.76, 1.24]"
        # delays evaluate at the clamped range edge (0.76 -> multiplier 1.39)
        assert _oracle.pulses_on(trace, "out") == (24170,)

    @pytest.mark.parametrize("outside, edge", [("0.5", "0.76"), ("1.5", "1.24")])
    def test_controller_out_of_range_flags_each_cell_once_and_runs_at_the_edge(self, outside, edge):
        cfg = SimConfig(frequency_hz=100 * 10**9, num_addresses=3)
        prepared = schedule(build_controller(cfg), stimulus_for(scenario_write_read(1, 3), cfg))
        t_end = 5 * trip_duration(cfg)
        off = run_until(prepared, t_end, exact_ratio(outside))
        at_edge = run_until(prepared, t_end, exact_ratio(edge))
        flagged = [v for v in off.violations if "outside operating range" in v.detail]
        assert [v.cell for v in flagged] == sorted(CELL_NAMES)
        assert all(v.kind == ViolationKind.ELECTRICAL and v.time_fs == 0 for v in flagged)
        assert off.violations[len(flagged):] == at_edge.violations
        assert off.events == at_edge.events

    @pytest.mark.parametrize("ratio", [0, Fraction(-1, 2)])
    def test_a_bias_that_is_not_positive_is_refused_before_the_run(self, ratio):
        # the controller's modelled cells would clamp an out-of-range bias, and the DRO's constant delay reads none
        cfg = SimConfig(frequency_hz=100 * 10**9, num_addresses=3)
        controller = (build_controller(cfg), stimulus_for(scenario_write_read(1, 3), cfg))
        for net, stimulus in (controller, (dro_netlist(), [(0, "din"), (20000, "clk")])):
            for refused in (lambda: run_until(schedule(net, stimulus), 10**6, ratio), lambda: net.at_bias(ratio)):
                with pytest.raises(ValueError, match="^bias ratio must be positive$"):
                    refused()

    def test_a_bias_is_a_plain_ratio_and_an_int_works(self):
        pulses = [(0, "din"), (20000, "clk")]
        assert run(dro_netlist(), pulses, bias=1) == run(dro_netlist(), pulses) == run(dro_netlist(), pulses, bias=Fraction(1))
        assert run(dro_netlist(), pulses, bias=Fraction(9, 10)).bias == Fraction(9, 10)

    def test_delay_curves_are_evaluated_per_run_not_per_event(self, monkeypatch):
        cfg = SimConfig(frequency_hz=100 * 10**9, num_addresses=3)
        net = build_controller(cfg)
        engine._pin.cache_clear()  # netlists with equal cells share pins: forget every bias pinned so far
        lookups = []
        original = cells.delay_at_bias
        monkeypatch.setattr(cells, "delay_at_bias", lambda model, b: lookups.append(b) or original(model, b))

        def count(trips: int, ratio: str) -> int:
            prepared = schedule(net, stimulus_for(scenario_write_read(1, trips), cfg))
            lookups.clear()
            trace = run_until(prepared, (trips + 2) * trip_duration(cfg), exact_ratio(ratio))
            assert trace.events
            return len(lookups)

        # the first run at each bias pins the cells; more trips add no lookup
        assert count(1, "0.9") == count(8, "0.95") > 0
        # a bias already pinned on these cells is looked up no more, on any netlist that has them
        assert count(8, "0.9") == 0
        net = Netlist(net.cells, net.connections, net.external_inputs, net.observed)
        assert count(8, "0.95") == 0

    def test_repeat_runs_at_one_bias_give_equal_traces(self):
        cfg = SimConfig(frequency_hz=100 * 10**9, num_addresses=3)
        prepared = schedule(build_controller(cfg), stimulus_for(scenario_write_read(1, 3), cfg))
        first = run_until(prepared, 5 * trip_duration(cfg), exact_ratio("0.5"))
        again = run_until(prepared, 5 * trip_duration(cfg), exact_ratio("0.5"))
        assert first == again and first.violations

    def test_pin_cache_stays_bounded(self):
        net = dro_netlist()
        prepared = schedule(net, [(0, "din"), (20000, "clk")])
        for i in range(200):
            run_until(prepared, 40000, Fraction(50 + i, 100))
        info = engine._pin.cache_info()
        assert 0 < info.currsize <= info.maxsize

    def test_the_per_bias_pins_hold_no_run_state(self):
        # one controller netlist, its pins reused across interleaved biases
        # (0.5 is outside every cell's range), against pins made afresh for each run
        cfg = SimConfig(frequency_hz=100 * 10**9, num_addresses=3)
        net = build_controller(cfg)
        stimulus = stimulus_for(scenario_write_read(1, 3), cfg)
        t_end = 5 * trip_duration(cfg)
        ratios = ("0.9", "1.0", "1.1", "0.5", "1.0", "0.9", "0.5", "1.1", "0.9")
        fresh = []
        for ratio in ratios:
            engine._pin.cache_clear()
            fresh.append(run_until(schedule(net, stimulus), t_end, exact_ratio(ratio)))
        engine._pin.cache_clear()
        for ratio, want in zip(ratios, fresh):
            trace = run_until(schedule(net, stimulus), t_end, exact_ratio(ratio))
            assert trace == want and trace.events
        assert engine._pin.cache_info().hits >= 5


def _cold_run(cfg: SimConfig, ratio: str) -> Trace:
    """A write/read run on a netlist built afresh, with no pins, kernel or bound constants cached."""
    memory._compile.cache_clear()
    engine._pin.cache_clear()
    engine._kernel.cache_clear()
    net = build_controller(cfg)
    prepared = schedule(net, stimulus_for(scenario_write_read(1, 3), cfg))
    return run_until(prepared, 5 * trip_duration(cfg), exact_ratio(ratio))


class TestBoundConstants:
    """A run reads the windows and delay sums bound on its pins, and the tap
    constants bound on its netlist, and gives the trace of a cold run."""

    RATIOS = ("0.9", "1.0", "1.1", "0.9", "0.5", "1.0")

    def alternate(self, cfgs: list[SimConfig]) -> None:
        """Each config's runs at ``RATIOS``, its netlist alternating with the
        others' on each bias's pins, against cold runs."""
        cold = [[_cold_run(cfg, ratio) for ratio in self.RATIOS] for cfg in cfgs]
        nets = [build_controller(cfg) for cfg in cfgs]
        for i, ratio in enumerate(self.RATIOS):
            for cfg, net, want in zip(cfgs, nets, cold):
                prepared = schedule(net, stimulus_for(scenario_write_read(1, 3), cfg))
                trace = run_until(prepared, 5 * trip_duration(cfg), exact_ratio(ratio))
                assert trace == want[i] and _oracle.pulses_on(trace, "loop_data_out")
                assert net.at_bias(exact_ratio(ratio)).bound[0] is net._folded_kernel[1][1]
        assert cold[0][1].events != cold[1][1].events  # at nominal, the loop taps differ

    def test_controllers_sharing_their_pins_run_with_their_own_taps(self):
        # 20 GHz and 100 GHz: one cell set and one wiring shape, so one pinned netlist per bias
        # and one kernel, but each its own loop delay, so each its own tap constants
        cfgs = [SimConfig(frequency_hz=ghz * 10**9, num_addresses=3) for ghz in (20, 100)]
        self.alternate(cfgs)
        nets = [build_controller(cfg) for cfg in cfgs]
        assert nets[0].at_bias(exact_ratio("0.9")) is nets[1].at_bias(exact_ratio("0.9"))
        (kernel, (_, bind_pins, taps)), (other, (_, other_bind, other_taps)) = (net._folded_kernel for net in nets)
        assert (kernel, bind_pins) == (other, other_bind) and taps != other_taps

    def test_a_run_after_the_pins_are_cleared_binds_again(self):
        cfg = SimConfig(frequency_hz=100 * 10**9, num_addresses=3)
        net = build_controller(cfg)
        prepared = schedule(net, stimulus_for(scenario_write_read(1, 3), cfg))
        bias = exact_ratio("0.9")
        first = run_until(prepared, 5 * trip_duration(cfg), bias)
        pins, (_, bind_pins, _) = net.at_bias(bias), net._folded_kernel[1]
        assert pins.bound[0] is bind_pins
        engine._pin.cache_clear()
        again = run_until(prepared, 5 * trip_duration(cfg), bias)
        repinned = net.at_bias(bias)
        assert repinned is not pins and repinned.bound == pins.bound
        assert again == first == _cold_run(cfg, "0.9")

    def test_pins_shared_by_two_kernels_bind_for_each(self):
        # loop jitter gives the loop tap a schedule, so a second kernel shape on the same cells
        plain = SimConfig(frequency_hz=100 * 10**9, num_addresses=3)
        cfgs = [plain, plain._replace(loop_jitter_fs=(300, -300, 500))]
        self.alternate(cfgs)
        nets = [build_controller(cfg) for cfg in cfgs]
        assert nets[0].at_bias(exact_ratio("0.9")) is nets[1].at_bias(exact_ratio("0.9"))
        assert nets[0]._folded_kernel[0] is not nets[1]._folded_kernel[0]

    def test_shapes_of_other_line_counts_on_one_pinned_cell_set_read_their_own_windows(self):
        # an external input that feeds nothing adds a line, so the one DRO's windows are other multiples of the count
        plain = dro_netlist()
        wider = Netlist(plain.cells, plain.connections, plain.external_inputs | {"x"}, plain.observed)
        assert len(wider.lines) == len(plain.lines) + 1 and plain.at_bias(NOMINAL_BIAS) is wider.at_bias(NOMINAL_BIAS)
        for net in (plain, wider, plain, wider):  # the clock is 1500 fs after data: inside the 2000 fs setup window
            violations = run(net, [(0, "din"), (1500, "clk")]).violations
            assert [(v.cell, v.kind, v.time_fs) for v in violations] == [("d", ViolationKind.SETUP, 1500)]


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

    def test_the_wiring_is_resolved_when_the_netlist_is_built(self):
        net = dro_netlist()
        assert vars(net).keys() == {"_wiring"}
        assert net.lines == ("clk", "din", "out")

    def test_pickles_and_deep_copies_through_the_constructor(self):
        cfg = SimConfig(frequency_hz=100 * 10**9, num_addresses=3)
        stimulus = stimulus_for(scenario_write_read(), cfg)

        def write_read(net: Netlist) -> Trace:
            return run_until(schedule(net, stimulus), 5 * trip_duration(cfg), cfg.bias)

        net = build_controller(cfg)
        original = write_read(net)  # the cell set pins are keyed on and the folded kernel are cached now
        assert {"_wiring", "_cell_set", "_folded_kernel"} <= vars(net).keys()
        for again in (pickle.loads(pickle.dumps(net)), copy.deepcopy(net)):
            assert again == net and again is not net
            # the constructor resolves the wiring again; the cell set and the kernels stay behind
            assert again._wiring == net._wiring and again._wiring is not net._wiring
            assert {"_cell_set", "_folded_kernel", "_wired_kernel"}.isdisjoint(vars(again))
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
        assert _oracle.pulses_on(trace, "b") == (110,)

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
        assert _oracle.pulses_on(trace, "b") == (110, 175, 270, 324)

    def test_pulse_before_first_schedule_entry_gets_no_offset(self):
        net = Netlist(
            cells={},
            connections=(Connection("a", "b", delay_fs=100, offset_schedule=((20, 5),)),),
            external_inputs=frozenset({"a"}),
            observed=("b",),
        )
        trace = run(net, [(10, "a")])
        assert _oracle.pulses_on(trace, "b") == (110,)

    def test_nonpositive_effective_delay_refused(self):
        # refused when the netlist is built, before any pulse
        with pytest.raises(NetlistError, match=r"^line tap a -> b needs a positive delay \(got 0 fs\)$"):
            Netlist(
                cells={},
                connections=(Connection("a", "b", delay_fs=100, offset_schedule=((0, -100),)),),
                external_inputs=frozenset({"a"}),
                observed=("b",),
            )

    @pytest.mark.parametrize("line, dst", [("a", "b"), ("w", "v")])
    def test_refused_tap_names_its_own_lines(self, line, dst):
        # one of three taps has an entry that cancels its delay, and the error names that one
        with pytest.raises(NetlistError, match=rf"^line tap {line} -> {dst} needs a positive delay \(got -20 fs\)$"):
            Netlist(
                cells={},
                connections=(
                    Connection("z", "w", delay_fs=10),
                    Connection("a", "b", delay_fs=100, offset_schedule=((0, 5), (50, -120 if line == "a" else 0))),
                    Connection("w", "v", delay_fs=100, offset_schedule=((0, 5), (50, -120 if line == "w" else 0))),
                ),
                external_inputs=frozenset({"a", "z"}),
                observed=("b", "v"),
            )

    def test_runaway_feedback_is_bounded(self):
        # a fanout whose outputs both re-enter its input at slightly
        # different delays doubles the pulse count every pass
        net = Netlist(
            cells={"f": FANOUT},
            connections=(
                Connection("x", "f.in"),
                Connection("f.out_a", "la"),
                Connection("f.out_b", "lb"),
                Connection("la", "x", delay_fs=100),
                Connection("lb", "x", delay_fs=101),
            ),
            external_inputs=frozenset({"x"}),
            observed=("x",),
        )
        with pytest.raises(RunawayQueueError, match="runaway feedback") as caught:
            run(net, [(0, "x")], max_events=1000)
        # raised from the generated kernel, whose traceback shows the generated line
        frame = traceback.extract_tb(caught.value.__traceback__)[-2]
        assert frame.filename.startswith("<fluxloop kernel ") and frame.name == "kernel"
        assert frame.line == "_overflow(max_events)"
        assert linecache.getline(frame.filename, frame.lineno).strip() == frame.line


def two_taps(plain: Connection, scheduled: Connection) -> tuple[Connection, ...]:
    """A DRO fed through two taps, the first with no schedule, the second with one."""
    return (Connection("din", "d.data"), plain, Connection("c", "d.clock"), Connection("d.out", "out"), scheduled)


class TestRetapped:
    """A netlist retapped from another is the one the constructor builds from
    the same connections, sharing the routes and re-checking only its taps."""

    BASE = two_taps(Connection("clk", "c", delay_fs=100), Connection("out", "back", delay_fs=300, offset_schedule=((0, 50),)))

    def base(self) -> Netlist:
        return Netlist({"d": DRO}, self.BASE, frozenset({"din", "clk"}), ("out", "back", "din"))

    def test_shares_the_routes_and_runs_its_own_taps(self):
        net = self.base()
        connections = two_taps(Connection("clk", "c", delay_fs=2500), Connection("out", "back", 700, ((0, 50), (4000, -600))))
        retapped = net.retapped(connections)
        built = Netlist(net.cells, connections, net.external_inputs, net.observed)
        assert retapped == built and type(retapped) is Netlist
        assert retapped._wiring is net._wiring and retapped._cell_set is net._cell_set and retapped.cells is net.cells
        stimulus = [(0, "din"), (100, "clk"), (3000, "din"), (3500, "clk")]
        assert run(retapped, stimulus) == run(built, stimulus) != run(net, stimulus)

    @pytest.mark.parametrize("index, tap", [
        (1, Connection("clk", "c", delay_fs=0)),
        (1, Connection("clk", "c", delay_fs=-7)),
        (4, Connection("out", "back", 300, ((0, 50), (10, -300)))),
        (4, Connection("out", "back", 300, ((10, 50), (0, 5)))),
        (4, Connection("out", "back", -100, ((0, 50),))),
    ])
    def test_a_refused_tap_gives_the_constructors_text(self, index, tap):
        net = self.base()
        connections = (*self.BASE[:index], tap, *self.BASE[index + 1:])
        with pytest.raises(NetlistError) as built:
            Netlist(net.cells, connections, net.external_inputs, net.observed)
        with pytest.raises(NetlistError) as retapped:
            net.retapped(connections)
        assert str(retapped.value) == str(built.value)

    @pytest.mark.parametrize("index, changed", [
        (0, Connection("clk", "d.data")),  # a feed
        (1, Connection("clk", "b", delay_fs=100)),  # a tap's line
        (1, Connection("clk", "c", 100, ((0, 5),))),  # a schedule where there was none
        (4, Connection("out", "back", delay_fs=300)),  # no schedule where there was one
    ])
    def test_a_change_to_more_than_a_taps_timing_is_refused(self, index, changed):
        connections = (*self.BASE[:index], changed, *self.BASE[index + 1:])
        with pytest.raises(ValueError, match=rf"^connection {index} \(.*\) changes more than a tap's delay and schedule$"):
            self.base().retapped(connections)
        with pytest.raises(ValueError, match="keeps its 5 connections"):
            self.base().retapped(self.BASE[:4])


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
        assert list(trace.events) == [(10000, "x"), (11000, "y"), (25000, "x"), (26000, "y")]
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
        assert list(trace.events) == [
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
        assert _oracle.pulses_on(run(dro_netlist(), pulses, max_events=3), "out") == (25000,)

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
        assert _oracle.pulses_on(run(net, [(0, "z"), (10000, "z")], max_events=3), "a") == (500, 10500)

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
        assert _oracle.pulses_on(trace, "q") == (1000,)
        assert [(v.cell, v.kind) for v in trace.violations] == [("m1", ViolationKind.ELECTRICAL), ("m2", ViolationKind.ELECTRICAL)]

    def test_recorded_pulses_are_pulse_events(self):
        trace = run(dro_netlist(), [(0, "din"), (20000, "clk")])
        assert trace.events == ((0, "din"), (20000, "clk"), (25000, "out"))
        assert all(type(e) is tuple and type(e[0]) is int and type(e[1]) is str for e in trace.events)


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


def reference_run(net: Netlist, stimulus: list[tuple[int, str]], t_end: int, bias: Fraction) -> tuple[tuple, tuple]:
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
            Connection("y", "x", delay_fs=loop, offset_schedule=tuple(sorted(jitter))),
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
    connections += [Connection(line, "c", delay_fs=250) for line, role in roles.items() if role == "tapped"]
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
    # fanout drives the second's input again through a tap: folds chain and cycle
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
            Connection("f3.out_b", "l3"),
            Connection("l3", "l1", delay_fs=250),
        ),
        external_inputs=frozenset({"z"}),
        observed=("a", "b", "c", "z"),
    )


#: The lines a drawn netlist (``drawn_netlists``) joins its cells and taps through.
DRAWN_LINES = ("a", "b", "c", "d", "e")


@st.composite
def drawn_netlists(draw) -> tuple:
    """The fields of a small netlist over every cell kind, with a stimulus and
    an end: each cell port wired to a drawn line or left open; zero and
    positive delays on cells and taps; taps with drawn offset schedules; and
    perhaps one port wiring spoiled by a delay or a schedule.  The netlist may
    be refused (a zero tap delay, an offset that cancels one, a spoiled
    wiring, a cycle of port wiring alone)."""
    params, connections = {}, []
    for k in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(list(CellKind)))
        params[f"c{k}"] = CellParams(kind=kind, prop_delay_fs=draw(delays), setup_fs=draw(delays), hold_fs=draw(delays),
                                     min_separation_fs=draw(delays))
        for port in cells.INPUT_PORTS[kind] + cells.OUTPUT_PORTS[kind]:
            line = draw(st.none() | st.sampled_from(DRAWN_LINES))
            if line is not None:
                ends = (line, f"c{k}.{port}") if port in cells.INPUT_PORTS[kind] else (f"c{k}.{port}", line)
                connections.append(Connection(*ends))
    spoiled = draw(st.none() | st.tuples(st.integers(0, 12), st.sampled_from([{"delay_fs": 500}, {"offset_schedule": ((0, 500),)}])))
    if spoiled is not None and spoiled[0] < len(connections):
        connections[spoiled[0]] = connections[spoiled[0]]._replace(**spoiled[1])
    offsets = st.lists(st.tuples(instants, st.integers(-2, 2).map(lambda k: 500 * k)), max_size=2).map(lambda o: tuple(sorted(o)))
    for _ in range(draw(st.integers(0, 3))):
        connections.append(Connection(draw(st.sampled_from(DRAWN_LINES)), draw(st.sampled_from(DRAWN_LINES)), draw(delays), draw(offsets)))
    inputs = draw(st.sets(st.sampled_from(DRAWN_LINES), min_size=1))
    observed = tuple(sorted(draw(st.sets(st.sampled_from(DRAWN_LINES)))))
    return params, tuple(connections), frozenset(inputs), observed, draw(stimuli(tuple(sorted(inputs)))), draw(instants)


class TestKernelMatchesReference:
    """run_until against the naive kernel above, on drawn delays and stimuli."""

    @staticmethod
    def check(net: Netlist, stimulus: list[tuple[int, str]], t_end: int, bias: Fraction = NOMINAL_BIAS) -> None:
        trace = run_until(schedule(net, stimulus), t_end, bias)
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
    # p's release lands on a at 500, equal to the next walk key: it is pushed, and merges after the walk's
    @example(500, 500, [(0, "p"), (500, "a")], 2000)
    # p's release lands on a at 1500, equal to the heap's least (z's fanout landing): it is pushed, and merges
    @example(1500, 500, [(0, "z"), (1000, "p")], 4000)
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
    # d's fold lands on xa and xb at 1500: xa, the first, is taken at once and its tap's landing on c
    # is one xb's push repeats; xb pops first, then both c landings merge, and c's merger fold repeats it
    @example(500, 1000, 500, "tapped", "tapped", [(0, "din"), (500, "clk")], 8000)
    # zero delays keep the wired routes
    @example(0, 0, 0, "tapped", "dead", [(0, "din"), (0, "p"), (500, "clk"), (500, "p")], 4000)
    def test_fold_of_a_fanout_only_line(self, dro, merger, fanout, role_a, role_b, stimulus, t_end):
        self.check(fold_net(dro, merger, fanout, role_a, role_b), stimulus, t_end)

    @settings(max_examples=30, deadline=None)
    @given(delays, delays, delays, stimuli(("z",)), st.integers(0, 8).map(lambda k: 500 * k))
    def test_folds_through_a_fanout_chain_and_cycle(self, first, second, third, stimulus, t_end):
        self.check(fanout_loop(first, second, third), stimulus, t_end)

    @settings(max_examples=150, deadline=None)
    @given(drawn_netlists())
    # a scheduled tap whose second entry cancels its delay: refused when built, not part way through a run
    @example(({}, (Connection("a", "b", 500, ((0, 0), (1000, -500))),), frozenset({"a"}), ("b",), [(0, "a"), (1000, "a")], 4000))
    # a fanout whose output re-enters its input through a tap, with a zero delay (the wired routes) and without
    @example(({"f": FANOUT}, (Connection("a", "f.in"), Connection("f.out_a", "b"), Connection("b", "a", 1000)),
              frozenset({"a"}), ("a", "b"), [(0, "a"), (700, "a")], 6000))
    @example(({"f": FANOUT._replace(prop_delay_fs=0)}, (Connection("a", "f.in"), Connection("f.out_a", "b"), Connection("b", "a", 1000)),
              frozenset({"a"}), ("a", "b"), [(0, "a"), (700, "a")], 6000))
    # folded, c1's release is taken at once on d, whose one reader drives nothing: a landing with an empty body
    @example(({"c0": FANOUT, "c1": CellParams(kind=CellKind.DRO2R, prop_delay_fs=1000, setup_fs=2000)},
              (Connection("d", "c0.in"), Connection("a", "c1.data"), Connection("b", "c1.clock1"), Connection("c1.out1", "d")),
              frozenset({"a", "b", "d"}), ("b",), [(0, "a"), (5000, "b")], 10000))
    def test_any_accepted_netlist(self, drawn):
        *fields, stimulus, t_end = drawn
        try:
            net = Netlist(*fields)
        except NetlistError:
            assume(False)
        self.check(net, stimulus, t_end)

    def test_zero_delay_runs_keep_the_wired_routes(self):
        # folded, z (fanout-only) would land g's release on a beside b at 0, and a sorts
        # first: d would store, then b clock it out onto y.  Wired, b clocks the empty d
        # before f, reading z, emits onto a: no y
        zero = CellParams(kind=CellKind.FANOUT, prop_delay_fs=0)
        net = Netlist(
            cells={"g": zero, "f": zero, "d": CellParams(kind=CellKind.DRO, prop_delay_fs=100, setup_fs=0, hold_fs=0)},
            connections=(
                Connection("x", "g.in"),
                Connection("g.out_a", "z"),
                Connection("g.out_b", "b"),
                Connection("z", "f.in"),
                Connection("f.out_a", "a"),
                Connection("f.out_b", "o"),
                Connection("a", "d.data"),
                Connection("b", "d.clock"),
                Connection("d.out", "y"),
            ),
            external_inputs=frozenset({"x"}),
            observed=("a", "b", "o", "x", "y"),
        )
        self.check(net, [(0, "x")], 1000)
        assert run_until(schedule(net, [(0, "x")]), 1000, NOMINAL_BIAS).events == (
            (0, "a"), (0, "b"), (0, "o"), (0, "x"),
        )

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
        self.check(build_controller(cfg), stimulus, (len(trips) + 2) * trip_duration(cfg), exact_ratio(ratio))


def _curve(lo: int, m_lo: int, hi: int, m_hi: int, reach: int) -> dict:
    """Overrides of a three-knot curve given in hundredths, its last multiplier
    possibly negative, over a range from its first knot to ``reach``% of the
    way from 1 to its last."""
    lo, m_lo, hi, m_hi = (Fraction(v, 100) for v in (lo, m_lo, hi, m_hi))
    return {"bias_curve": ((lo, m_lo), (1, 1), (hi, m_hi)), "operating_range": (lo, 1 + (hi - 1) * Fraction(reach, 100))}


curves = st.builds(_curve, st.integers(50, 99), st.integers(101, 300), st.integers(101, 200), st.integers(-300, 99),
                   st.sampled_from([1, 25, 50, 100]) | st.integers(1, 100))


@settings(max_examples=40, deadline=None)
@given(
    st.dictionaries(st.sampled_from(sorted(CELL_NAMES)), curves, min_size=1, max_size=2),
    st.lists(
        st.builds(TripOp, st.none() | st.tuples(st.integers(0, 2), st.integers(0, 1)), st.sets(st.integers(0, 2)).map(tuple)),
        min_size=2,
        max_size=3,
    ),
    st.sampled_from(["0.5", "1", "1.45", "2"]),
)
# a write_dro pinned at -2400 fs would record loop_data_in at 23780 fs after write_address at 25000 fs
@example({"write_dro": _curve(50, 200, 150, -100, 100)}, [TripOp((1, 1), (1,)), TripOp(None, (0, 1, 2))], "1.45")
def test_a_run_on_any_accepted_curve_keeps_its_keys_ascending(overrides, trips, ratio):
    # a curve whose delay turned negative in range would emit before its clock
    try:
        cfg = SimConfig(frequency_hz=100 * 10**9, num_addresses=3, cell_overrides=overrides)
        net = build_controller(cfg)
    except FluxloopError:  # the curve is refused, or the loop cannot fit the trip
        assume(False)
    stimulus = stimulus_for(MemoryProgram(tuple(trips)), cfg)
    keys = run_until(schedule(net, stimulus), (len(trips) + 2) * trip_duration(cfg), exact_ratio(ratio)).keys
    assert all(a < b for a, b in zip(keys, keys[1:]))


def _queued_lines(monkeypatch, net: Netlist, stimulus, t_end: int, bias: Fraction) -> set[str]:
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
    # a zero delay keeps the wired routes: the fanout's input and both discard lines are queued;
    # a landing may be taken without a push, but a tap's (the loop's) is always queued
    assert lines & UNSEEN == queued and "loop_data_out" in lines


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


#: c1's release lands on d, which only c0 reads: a fanout whose outputs drive nothing.
FANOUT_TO_NOWHERE = Netlist(
    {"c0": FANOUT, "c1": CellParams(kind=CellKind.DRO2R, prop_delay_fs=1000, setup_fs=2000)},
    (Connection("d", "c0.in"), Connection("a", "c1.data"), Connection("b", "c1.clock1"), Connection("c1.out1", "d")),
    frozenset({"a", "b", "d"}), ("b",),
)


def fanout_chain() -> Netlist:
    """A DRO's release onto x, read by a fanout onto y, read by a fanout onto z, which nothing reads."""
    return Netlist(
        {"d": DRO, "f1": FANOUT, "f2": FANOUT},
        (Connection("din", "d.data"), Connection("clk", "d.clock"), Connection("d.out", "x"), Connection("x", "f1.in"),
         Connection("f1.out_a", "y"), Connection("y", "f2.in"), Connection("f2.out_b", "z")),
        frozenset({"din", "clk"}), ("clk",),
    )


@pytest.mark.parametrize("net, stimulus", [
    (FANOUT_TO_NOWHERE, [(0, "a"), (5000, "b")]),
    (fanout_chain(), [(0, "din"), (3000, "clk")]),
])
def test_a_release_only_fanouts_to_nowhere_read_is_dropped(net, stimulus):
    # folded, every line those fanouts read is dead: no landing is pushed or taken
    folded = "".join(_kernel_source(net))
    assert "push(" not in folded and "key +=" not in folded
    TestKernelMatchesReference.check(net, stimulus, 10_000)


def feedback_net(merger: int, fanout: int, tap_a: int, tap_b: int, seen: bool) -> Netlist:
    """A merger whose output a fanout splits onto a and b, each tapped back
    into the merger's second input f: a pulse on f comes back twice, or once
    when the taps' delays are equal.  x and f are external inputs; mid, the
    merger's output, is folded away unless ``seen``."""
    return Netlist(
        cells={
            "m": CellParams(kind=CellKind.MERGER, prop_delay_fs=merger, min_separation_fs=1000),
            "s": CellParams(kind=CellKind.FANOUT, prop_delay_fs=fanout),
        },
        connections=(
            Connection("x", "m.in0"),
            Connection("f", "m.in1"),
            Connection("m.out", "mid"),
            Connection("mid", "s.in"),
            Connection("s.out_a", "a"),
            Connection("s.out_b", "b"),
            Connection("a", "f", delay_fs=tap_a),
            Connection("b", "f", delay_fs=tap_b),
        ),
        external_inputs=frozenset({"x", "f"}),
        observed=("a", "b", "f", "x") + (("mid",) * seen),
    )


def pending_high_water(net: Netlist, stimulus: list[tuple[int, str]], t_end: int, cap: int) -> int:
    """The most pulses pending at a loop head of the kernel's contract, for a
    ``feedback_net``, written naively: one heap of (t, line) keys keeping every
    push, duplicates too (a key equal to one processed is dropped as it pops),
    plus the stimulus not yet taken.  With no zero delay the merger lands on
    the fanout's outputs unless mid is observed.  Stops once past ``cap``."""
    merger, fanout = net.cells["m"].prop_delay_fs, net.cells["s"].prop_delay_fs
    fold = merger > 0 and fanout > 0 and "mid" not in net.observed
    taps = {c.src: c.delay_fs for c in net.connections if "." not in c.src + c.dst}  # no port end: a tap
    walk, heap, done, taken, mark = sorted(stimulus), [], set(), 0, 0
    while mark <= cap:
        mark = max(mark, len(heap) + len(walk) - taken)
        following = walk[taken] if taken < len(walk) and walk[taken][0] < t_end else None
        if heap and heap[0][0] < t_end and (following is None or heap[0] < following):
            key = heappop(heap)
        elif following is not None:
            key, taken = following, taken + 1
        else:
            break
        if key in done:
            continue
        done.add(key)
        t, line = key
        if line in ("x", "f"):
            landings = [(t + merger + fanout, "a"), (t + merger + fanout, "b")] if fold else [(t + merger, "mid")]
        elif line == "mid":
            landings = [(t + fanout, "a"), (t + fanout, "b")]
        else:
            landings = [(t + taps[line], "f")]
        for landing in landings:
            heappush(heap, landing)
    return mark


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([0, 500, 1000]), st.sampled_from([0, 500, 1000]), delays.filter(bool), delays.filter(bool), st.booleans(),
       stimuli(("f", "x")), st.integers(0, 30).map(lambda k: 500 * k))
# folded: x's landing on a at 1000 is taken at once, beside b's push; the taps' equal delays merge their pulses on f
@example(500, 500, 1500, 1500, False, [(0, "x")], 6000)
# x's two landings are pending at once, b's pushed and a's about to be taken: the mark is 2 though the heap holds 1
@example(500, 500, 500, 1000, False, [(0, "x")], 500)
def test_max_events_is_exceeded_exactly_past_the_pending_high_water_mark(merger, fanout, tap_a, tap_b, seen, stimulus, t_end):
    # landings taken at once are never pushed, yet they count as pending until taken
    net = feedback_net(merger, fanout, tap_a, tap_b, seen)
    cap = 40
    mark = pending_high_water(net, stimulus, t_end, cap)
    for bound in (mark - 1, mark) if mark <= cap else (cap,):
        try:
            run(net, stimulus, t_end=t_end, max_events=bound)
        except RunawayQueueError:
            assert bound < mark
        else:
            assert bound >= mark


def _kernel_source(net: Netlist, bias: Fraction = NOMINAL_BIAS) -> list[str]:
    """The source of the kernel a run at ``bias`` takes: wired for a zero delay, else folded."""
    kernel, _ = net._wired_kernel if net.at_bias(bias).zero_delay else net._folded_kernel
    return linecache.getlines(kernel.__code__.co_filename)


def diamonds(levels: int, fanout: int = 500) -> Netlist:
    """``levels`` fanout/merger levels: each level's fanout splits its input
    line in two and its merger joins them onto the next level's input, so a
    pulse's releases chain through every level."""
    cells, connections = {}, []
    for k in range(levels):
        cells[f"f{k:02d}"] = CellParams(kind=CellKind.FANOUT, prop_delay_fs=fanout)
        cells[f"m{k:02d}"] = CellParams(kind=CellKind.MERGER, prop_delay_fs=1000, min_separation_fs=100)
        connections += [
            Connection(f"l{k:02d}", f"f{k:02d}.in"),
            Connection(f"f{k:02d}.out_a", f"u{k:02d}"),
            Connection(f"f{k:02d}.out_b", f"v{k:02d}"),
            Connection(f"u{k:02d}", f"m{k:02d}.in0"),
            Connection(f"v{k:02d}", f"m{k:02d}.in1"),
            Connection(f"m{k:02d}.out", f"l{k + 1:02d}"),
        ]
    return Netlist(cells, tuple(connections), frozenset({"l00"}), (f"l{levels:02d}",))


def test_kernel_source_stays_linear_in_the_route_table():
    # each level's merger lands on the next level's two inputs, whose bodies land on the next and so on:
    # taken at once without a cap, every level would repeat the bodies of all the levels after it
    # (a zero fanout delay takes the wired kernel, which takes no landing at once)
    for fanout in (500, 0):
        lines = {}
        for levels in (6, 12, 18):
            net = diamonds(levels, fanout)
            assert net.at_bias(NOMINAL_BIAS).zero_delay == (fanout == 0)
            trace = run(net, [(0, "l00")], t_end=10**6)
            assert _oracle.pulses_on(trace, f"l{levels:02d}") == ((1000 + fanout) * levels,)
            lines[levels] = len(_kernel_source(net))
            assert lines[levels] <= 24 * len(net.lines)
        # six more levels add no more source than the six before them
        assert lines[18] - lines[12] <= lines[12] - lines[6]


def test_the_controller_kernel_keeps_its_line_budget():
    # folded, and wired for a zero fanout delay
    for overrides in ({}, {"fanout": {"prop_delay": 0}}):
        cfg = SimConfig(frequency_hz=100 * 10**9, num_addresses=3, cell_overrides=overrides)
        net = build_controller(cfg)
        assert net.at_bias(cfg.bias).zero_delay == bool(overrides)
        assert len(_kernel_source(net, cfg.bias)) <= 170


def test_the_controller_kernel_binds_each_window_and_delay_sum_once():
    # the merger's two inputs check one separation, and read_dro2r's two clocks one setup: one W local each
    for overrides in ({}, {"fanout": {"prop_delay": 0}}):
        cfg = SimConfig(frequency_hz=100 * 10**9, num_addresses=3, cell_overrides=overrides)
        (bind_pins,) = (node for node in ast.walk(ast.parse("".join(_kernel_source(build_controller(cfg)))))
                        if isinstance(node, ast.FunctionDef) and node.name == "bind_pins")
        constants = [ast.unparse(item) for item in bind_pins.body[0].value.elts]
        windows = [c for c in constants if re.fullmatch(r"cells\[\d\]\.\w+ \* 14", c)]  # a delay sum adds a rank offset
        assert "cells[1].min_separation_fs * 14" in windows
        assert len(set(constants)) == len(constants) and len(windows) == 7


def test_an_evicted_kernel_takes_its_source_out_of_linecache():
    # more shapes than the kernel cache holds (a fan of 1 to 40 taps); each netlist is dropped once it has run
    names = []
    for taps in range(1, 41):
        net = Netlist({}, tuple(Connection("a", f"b{j:02d}", delay_fs=100) for j in range(taps)), frozenset({"a"}), ("a",))
        run(net, [(0, "a")])
        names.append(net._folded_kernel[0].__code__.co_filename)
    del net
    gc.collect()
    assert len(set(names)) == 40
    assert sum(name in linecache.cache for name in names) <= 32
    engine._kernel.cache_clear()
    gc.collect()
    assert not any(name in linecache.cache for name in names)


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
    return build_controller(cfg), stimulus, (len(trips) + 2) * trip_duration(cfg), exact_ratio(ratio)


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


def _traced(net: Netlist, stimulus: list[tuple[int, str]], t_end: int, bias: Fraction) -> Trace:
    return run_until(schedule(net, stimulus), t_end, bias)


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


@pytest.mark.parametrize("suffix", [".vcd", ".csv"])
def test_the_simulate_path_derives_no_events(suffix, tmp_path, monkeypatch):
    cfg = SimConfig(frequency_hz=100 * 10**9, num_addresses=3)
    program = MemoryProgram((TripOp(write=(1, 1), reads=(1, 2)), TripOp(write=(2, 1), reads=(1,)), TripOp(reads=(2,))))
    (tmp_path / "cfg.json").write_text(serialize_config(cfg))
    trips = [{"write": {"addr": 1, "bit": 1}, "reads": [1, 2]}, {"write": {"addr": 2, "bit": 1}, "reads": [1]}, {"reads": [2]}]
    (tmp_path / "program.json").write_text(json.dumps({"trips": trips}))
    reads, derive = [], Trace.events.fget
    monkeypatch.setattr(Trace, "events", property(lambda trace: reads.append(trace) or derive(trace)))
    argv = ["simulate", "--config", str(tmp_path / "cfg.json"), "--program", str(tmp_path / "program.json")]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main([*argv, "--trace", str(tmp_path / f"trace{suffix}")]) == 0
    assert out.getvalue().endswith("result: PASS\n") and reads == []
    monkeypatch.undo()
    result = run_program(program, cfg)
    trace = result.trace
    assert result.reads == {(0, 1): 1, (0, 2): 0, (1, 1): 1, (2, 2): 1}
    assert not hasattr(trace, "__dict__")
    reference = reference_run(build_controller(cfg), stimulus_for(program, cfg), trace.t_end_fs, cfg.bias)
    assert (trace.events, trace.violations) == reference
    # derived at each read, and kept nowhere
    assert trace.events == trace.events and trace.events is not trace.events


class TestTraceQueries:
    def test_a_lines_pulses_read_from_the_events_are_its_keys(self):
        trace = run(dro_netlist(), [(0, "din"), (20000, "clk"), (30000, "din"), (50000, "clk")])
        assert _oracle.pulses_on(trace, "out") == (25000, 55000)
        n, out = len(trace.lines), trace.lines.index("out")
        assert [k // n for k in trace.keys if k % n == out] == [25000, 55000]

    def test_unobserved_line_rejected(self):
        trace = run(dro_netlist(), [(0, "din")])
        with pytest.raises(UnknownLineError, match="not observed"):
            _oracle.pulses_on(trace, "d.out")

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
        assert list(trace.events) == [
            (100, "a"), (100, "b"), (100, "z"), (300, "a"), (300, "b"), (300, "z"),
        ]
        assert trace_to_vcd(trace).endswith('#0\n0!\n0"\n0#\n#100\n1!\n1"\n1#\n#300\n0!\n0"\n0#\n')

    def test_reruns_are_identical(self):
        pulses = [(0, "din"), (20000, "clk"), (30000, "din"), (50000, "clk")]
        assert run(dro_netlist(), pulses) == run(dro_netlist(), pulses)


class TestExports:
    TRACE = _oracle.trace_of(
        events=((0, "a"), (1500, "b")),
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
        trace = _oracle.trace_of(
            events=((0, "a"), (1500, "b"), (2000, "a")),
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
        trace = Trace((), (), (), tuple(f"l{i}" for i in range(95)), 0, NOMINAL_BIAS)
        with pytest.raises(FluxloopError, match="too many observed lines"):
            trace_to_vcd(trace)


def _chunked_trace() -> Trace:
    """Pulses 10 fs apart on ``a`` over three export chunks and more, with a
    ``b`` pulse sharing an instant across each of the VCD's first two chunk
    boundaries and a violation on each of the CSV's."""
    shared = (EXPORT_CHUNK, 2 * EXPORT_CHUNK)  # the VCD's chunks start after the one t=0 pulse
    events = [(10 * i, "a") for i in range(3 * EXPORT_CHUNK + 5) if i - 1 not in shared]
    events += [(10 * i, "b") for i in shared]
    boundaries = [10 * (i - 1) for i in shared]  # the last instant of each of the CSV's first two chunks
    violations = [
        TimingViolation("m", ViolationKind.ELECTRICAL, 0, "bias 3/2 outside operating range [1/2, 6/5]"),
        *(TimingViolation("d", ViolationKind.SETUP, t, f'data 1 fs "late" at {t}') for t in boundaries),
        TimingViolation("d", ViolationKind.HOLD, 10 * EXPORT_CHUNK, "clock 2 fs apart"),
        TimingViolation("m", ViolationKind.ELECTRICAL, 10**9, "after every pulse"),
    ]
    return _oracle.trace_of(events, violations, ("a", "b"), 10**9, NOMINAL_BIAS)


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
        trace = Trace((), ("a",), TestExports.TRACE.violations, ("a",), 10**4, NOMINAL_BIAS)
        write_csv(trace, file := io.StringIO())
        assert file.getvalue() == _oracle.trace_to_csv(trace)

    def test_the_vcd_line_budget_is_refused_before_a_write(self):
        trace = Trace((), (), (), tuple(f"l{i}" for i in range(95)), 0, NOMINAL_BIAS)
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
    prepared = schedule(net, [(10 * i, "z") for i in range(pulses)])
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
