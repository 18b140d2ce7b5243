"""Controller assembly, addressing stimulus, program runs, jitter windows."""

from __future__ import annotations

import json
import time
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import _oracle
import pytest
from hypothesis import assume, example, given, strategies as st

from fluxloop import (
    ConfigError,
    InfeasibleFrequencyError,
    MemoryProgram,
    SimConfig,
    TripOp,
    build_controller,
    jitter_tolerance,
    oracle,
    parse_program,
    pulse_spacing,
    required_loop_delay,
    run_program,
    scenario_address_sweep,
    scenario_overwrite,
    scenario_write_read,
)
from fluxloop import memory
from fluxloop.core import exact_ratio
from fluxloop.engine import PreparedRun, RunawayQueueError, UnknownLineError, schedule
from fluxloop.memory import (
    INPUT_LINES,
    OBSERVED_LINES,
    default_margin_suite,
    phase_instants,
    read_window_offset,
    stimulus_for,
)

GHZ = 10**9


def loop_taps(net) -> list:
    """The netlist's line -> line taps: its connections with no cell port end."""
    return [c for c in net.connections if "." not in c.src + c.dst]


class TestProgramModel:
    def test_trip_op_validation(self):
        with pytest.raises(ConfigError, match="bit must be 0 or 1"):
            TripOp(write=(1, 2))
        with pytest.raises(ConfigError, match="address must be non-negative"):
            TripOp(write=(-1, 1))
        with pytest.raises(ConfigError, match="duplicate read address"):
            TripOp(reads=(1, 1))
        with pytest.raises(ConfigError, match="addresses must be non-negative"):
            TripOp(reads=(-2,))

    def test_a_long_trip_finds_its_first_repeat_at_once(self):
        reads = list(range(200_000))
        reads[150_000] = reads[199_999] = 7  # the first repeat is at 150,000, of the read at 7
        start = time.perf_counter()
        with pytest.raises(ConfigError) as exc:
            parse_program(json.dumps({"trips": [{"reads": reads}]}))
        assert time.perf_counter() - start < 0.5
        assert str(exc.value) == "trips[0].reads[150000]: duplicate read address within a trip"

    def test_max_address(self):
        program = MemoryProgram(trips=(TripOp(write=(4, 1)), TripOp(reads=(2, 6))))
        assert program.max_address() == 6
        assert MemoryProgram(trips=(TripOp(),)).max_address() == -1

    def test_json_round_trip(self):
        # an explicit null write, an empty read list and an absent write all parse
        text = '{"trips": [{"write": {"addr": 1, "bit": 1}, "reads": [0, 1]}, {"write": null, "reads": []}, {"reads": [2]}]}'
        program = MemoryProgram(trips=(TripOp(write=(1, 1), reads=(0, 1)), TripOp(), TripOp(reads=(2,))))
        assert parse_program(text) == program

    def test_parse_accepts_sparse_documents(self):
        program = parse_program('{"trips": [{"reads": [1]}, {"write": {"addr": 0, "bit": 1}}]}')
        assert program.trips[0] == TripOp(reads=(1,))
        assert program.trips[1] == TripOp(write=(0, 1))

    @pytest.mark.parametrize(
        "text, field",
        [
            ("{", "<program>"),
            ('{"trip": []}', "trips"),
            ('{"trips": {}}', "trips"),
            ('{"trips": [[1]]}', r"trips\[0\]"),
            ('{"trips": [{"write": {"addr": 1}}]}', r"trips\[0\].write"),
            ('{"trips": [{"reads": 3}]}', r"trips\[0\].reads"),
            ('{"trips": [{"write": {"addr": "1", "bit": 1}}]}', r"trips\[0\].write.addr: expected an integer"),
            ('{"trips": [{"write": {"addr": 1, "bit": true}}]}', r"trips\[0\].write.bit: expected an integer"),
            ('{"trips": [{}, {"reads": [0, 1.0]}]}', r"trips\[1\].reads\[1\]: expected an integer"),
            ('{"trips": [{"write": {"addr": 1, "bit": 2}}]}', r"trips\[0\].write.bit: bit must be 0 or 1"),
            ('{"trips": [{}, {"write": {"addr": -1, "bit": 1}}]}', r"trips\[1\].write.addr: address must be non-neg"),
            ('{"trips": [{"reads": [0, 2, -2]}]}', r"trips\[0\].reads\[2\]: addresses must be non-negative"),
            ('{"trips": [{}, {"reads": [2, 0, 2]}]}', r"trips\[1\].reads\[2\]: duplicate read address within"),
        ],
    )
    def test_parse_errors_name_the_field(self, text, field):
        with pytest.raises(ConfigError, match=field):
            parse_program(text)

    def test_oracle_applies_writes_before_same_trip_reads(self):
        program = MemoryProgram(
            trips=(
                TripOp(write=(0, 1), reads=(0, 1)),
                TripOp(write=(0, 0), reads=(0,)),
                TripOp(reads=(0,)),
            )
        )
        assert oracle(program, 2) == {(0, 0): 1, (0, 1): 0, (1, 0): 0, (2, 0): 0}

    def test_oracle_rejects_out_of_range_address(self):
        with pytest.raises(ConfigError, match="address 5 out of range"):
            oracle(MemoryProgram(trips=(TripOp(reads=(5,)),)), 3)


class TestLoopDelay:
    @pytest.mark.parametrize(
        "freq_ghz, n, expected",
        [(100, 3, 30000), (50, 9, 190000), (75, 3, 43332)],
    )
    def test_required_loop_delay(self, freq_ghz, n, expected):
        cfg = SimConfig(frequency_hz=freq_ghz * GHZ, num_addresses=n)
        assert required_loop_delay(cfg) == expected

    def test_infeasible_when_budget_exceeds_trip(self):
        cfg = SimConfig(frequency_hz=10**12, num_addresses=3)
        with pytest.raises(InfeasibleFrequencyError, match="does not fit"):
            required_loop_delay(cfg)


class TestControllerNetlist:
    def test_shape(self, cfg100):
        net = build_controller(cfg100)
        assert set(net.cells) == {"write_dro", "recirc_dro2r", "merger", "fanout", "read_dro2r"}
        assert len(net.connections) == 20
        loops = loop_taps(net)
        assert len(loops) == 1
        assert (loops[0].src, loops[0].dst, loops[0].delay_fs) == ("loop_data_in", "loop_data_out", 30000)
        assert net.external_inputs == frozenset(INPUT_LINES)
        assert net.observed == OBSERVED_LINES

    def test_compiled_once_per_bias_free_config(self, cfg100):
        net = build_controller(cfg100)
        assert build_controller(cfg100.with_bias(exact_ratio("0.8"))) is net
        assert build_controller(cfg100._replace(max_events=5, search_ceiling_hz=GHZ)) is net
        # the netlist reads no phase
        assert build_controller(cfg100._replace(phase_read=Fraction(1, 10), phase_data=Fraction(0))) is net
        # equal overrides held in distinct objects compile alike
        tuned = {"merger": {"prop_delay": 1000}}
        assert build_controller(cfg100._replace(cell_overrides=tuned)) is build_controller(
            cfg100._replace(cell_overrides={"merger": {"prop_delay": 1000}})
        )
        for changed in (
            cfg100.with_frequency(50 * GHZ),
            cfg100._replace(num_addresses=4),
            cfg100._replace(header_intervals=2),
            cfg100._replace(retiming_guard_fs=1000),
            cfg100._replace(loop_jitter_fs=(100,)),
            cfg100._replace(cell_overrides=tuned),
        ):
            assert build_controller(changed) is not net

    def test_shared_cells_are_read_only(self, cfg100):
        net = build_controller(cfg100)
        with pytest.raises(TypeError):
            net.cells["merger"] = net.cells["fanout"]
        assert build_controller(cfg100).cells["merger"].kind.value == "MERGER"

    def test_explicit_loop_delay_wins(self, cfg100):
        cfg = cfg100._replace(loop_delay_fs=25000)
        loops = loop_taps(build_controller(cfg))
        assert loops[0].delay_fs == 25000

    def test_jitter_offsets_become_a_schedule(self, cfg100):
        cfg = cfg100._replace(loop_jitter_fs=(500, -500))
        loops = loop_taps(build_controller(cfg))
        # one entry per trip plus the terminating return-to-zero entry
        assert loops[0].offset_schedule == ((0, 500), (40000, -500), (80000, 0))


class TestStimulus:
    def test_a_key_off_the_controllers_inputs_is_refused(self, cfg100):
        # loop_data_out ranks below every input: the kernel would take a walk key on it for the end of the run
        net = build_controller(cfg100)
        n, stimulus = len(net.lines), stimulus_for(scenario_write_read(address=1, trips=3), cfg100)
        keys = [t * n + net.lines.index(line) for t, line in stimulus]
        assert PreparedRun(net, keys) == schedule(net, stimulus)
        with pytest.raises(UnknownLineError) as info:
            PreparedRun(net, keys + [1000 * n + net.lines.index("loop_data_out")])
        assert str(info.value) == "line 'loop_data_out' is not a declared external input"

    def test_phase_instants(self, cfg100):
        assert phase_instants(cfg100) == (2000, 5000, 5000)
        cfg75 = SimConfig(frequency_hz=75 * GHZ, num_addresses=3)
        assert phase_instants(cfg75) == (2667, 6667, 6667)

    def test_golden_write_read_stimulus(self, cfg100):
        pulses = stimulus_for(scenario_write_read(address=1, trips=3), cfg100)
        by_line: dict[str, list[int]] = {}
        for time_fs, line in pulses:
            by_line.setdefault(line, []).append(time_fs)
        assert by_line["write_data"] == [5000]
        assert by_line["write_address"] == [25000]
        assert by_line["not_write_address"] == [15000, 35000, 55000, 65000, 75000, 95000, 105000, 115000]
        assert by_line["read_address"] == [22000, 62000, 102000]
        assert by_line["not_read_address"] == [12000, 32000, 52000, 72000, 92000, 112000]

    @pytest.mark.parametrize("ghz", [20, 75, 100])
    def test_stimulus_comes_in_time_order(self, ghz):
        # at the default phases no two pulses share an instant, so the
        # generation order is the order schedule sorts into
        cfg = SimConfig(frequency_hz=ghz * GHZ, num_addresses=4, header_intervals=2)
        program = MemoryProgram(
            trips=(TripOp(write=(0, 1), reads=(0, 3)), TripOp(write=(3, 0), reads=(1,)), TripOp(write=(2, 1)))
        )
        pulses = stimulus_for(program, cfg)
        assert pulses == sorted(pulses)

    def test_every_interval_is_differential(self, cfg100):
        program = MemoryProgram(
            trips=(TripOp(write=(0, 1), reads=(2,)), TripOp(reads=(0, 1, 2)), TripOp())
        )
        pulses = stimulus_for(program, cfg100)
        for t in range(len(program.trips)):
            for k in range(cfg100.num_addresses):
                slot = t * 40000 + 10000 + k * 10000
                w = [(t, line) for t, line in pulses if t == slot + 5000 and line in ("write_address", "not_write_address")]
                r = [(t, line) for t, line in pulses if t == slot + 2000 and line in ("read_address", "not_read_address")]
                assert len(w) == 1 and len(r) == 1

    def test_zero_write_sends_no_data_pulse(self, cfg100):
        program = MemoryProgram(trips=(TripOp(write=(1, 0)),))
        pulses = stimulus_for(program, cfg100)
        assert all(line != "write_data" for _, line in pulses)
        # the address interval still fires write_address to clear the slot
        assert (25000, "write_address") in pulses

    def test_out_of_range_address_refused(self, cfg100):
        with pytest.raises(ConfigError, match="address 3 out of range for num_addresses=3"):
            stimulus_for(MemoryProgram(trips=(TripOp(reads=(3,)),)), cfg100)

    def test_stimulus_over_the_event_bound_is_refused_before_any_pulse_is_made(self, cfg100, monkeypatch):
        # the pulse instants are computed only once the size is known to fit
        timed = []
        monkeypatch.setattr(memory, "phase_instants", lambda cfg: timed.append(cfg) or phase_instants(cfg))
        program = scenario_write_read(address=1, trips=2)  # 2 trips x 2 x 3 addresses + one write of a 1
        with pytest.raises(RunawayQueueError, match="stimulus of 13 pulses exceeds the bound of 12 events"):
            stimulus_for(program, cfg100._replace(max_events=12))
        assert timed == []
        assert len(stimulus_for(program, cfg100._replace(max_events=13))) == 13
        # a bad address is still reported first
        with pytest.raises(ConfigError, match="address 3 out of range"):
            stimulus_for(MemoryProgram(trips=(TripOp(reads=(3,)),)), cfg100._replace(max_events=1))


class TestRunProgram:
    def test_golden_write_read(self, cfg100):
        result = run_program(scenario_write_read(address=1, trips=3), cfg100)
        assert result.passed
        assert result.trace.violations == ()
        assert result.reads == {(0, 1): 1, (1, 1): 1, (2, 1): 1}
        assert _oracle.pulses_on(result.trace, "loop_data_in") == (30000, 70000, 110000)
        assert _oracle.pulses_on(result.trace, "loop_data_out") == (60000, 100000, 140000)
        assert _oracle.pulses_on(result.trace, "read_data") == (33000, 73000, 113000)

    def test_read_window_offset(self, cfg100):
        controller = build_controller(cfg100)
        assert read_window_offset(controller.at_bias(cfg100.bias)) == 8000
        # biased low: every cell slows down
        assert read_window_offset(controller.at_bias(exact_ratio("0.76"))) == 11120  # 8000 * 1.39

    def test_golden_overwrite(self, cfg100):
        result = run_program(scenario_overwrite(address=1), cfg100)
        assert result.passed
        assert result.reads == {(0, 1): 1, (2, 1): 0}
        # the overwrite discards the recirculating 1: one loop entry only
        assert _oracle.pulses_on(result.trace, "loop_data_in") == (30000,)
        assert _oracle.pulses_on(result.trace, "loop_data_out") == (60000,)

    def test_address_sweep_matches_oracle(self, cfg100):
        program = scenario_address_sweep(3)
        result = run_program(program, cfg100)
        assert result.passed
        assert result.reads == oracle(program, 3)
        assert set(result.reads.values()) == {1}

    def test_address_sweep_reads_each_fresh_write_and_its_successor(self):
        # the read of address a + 1 races the read clock of a's fresh write
        assert scenario_address_sweep(3).trips == (
            TripOp(write=(2, 1), reads=(2,)),
            TripOp(write=(1, 1), reads=(1, 2)),
            TripOp(write=(0, 1), reads=(0, 1)),
            TripOp(reads=(0, 1, 2)),
        )

    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    def test_default_suite_refuses_a_sweep_over_the_event_bound(self, cfg100, n):
        cfg = cfg100._replace(num_addresses=n)
        size = len(stimulus_for(scenario_address_sweep(n), cfg))
        assert size == 2 * n * (n + 1) + n
        default_margin_suite(cfg._replace(max_events=size))
        with pytest.raises(RunawayQueueError, match=f"stimulus of {size} pulses exceeds the bound of {size - 1}"):
            default_margin_suite(cfg._replace(max_events=size - 1))

    def test_stale_bit_is_replaced_not_merged(self, cfg100):
        # writing address 2 then reading everything: addresses 0 and 1 must
        # stay empty even though the loop carries a circulating pulse
        program = MemoryProgram(trips=(TripOp(write=(2, 1)), TripOp(reads=(0, 1, 2))))
        result = run_program(program, cfg100)
        assert result.passed
        assert result.reads == {(1, 0): 0, (1, 1): 0, (1, 2): 1}

    def test_starved_bias_fails_electrically_but_still_decodes(self, cfg100):
        cfg = cfg100.with_bias(exact_ratio(0.5))
        result = run_program(scenario_write_read(address=1, trips=3), cfg)
        assert not result.passed
        kinds = {v.kind.value for v in result.trace.violations}
        assert kinds == {"ELECTRICAL"}
        # all five cells sit outside their range
        assert len(result.trace.violations) == 5
        # clamped delays still line up (every cell scales together)
        assert result.reads == {(0, 1): 1, (1, 1): 1, (2, 1): 1}

    def test_default_margin_suite_composition(self, cfg100):
        suite = default_margin_suite(cfg100)
        assert len(suite) == 3
        # scenario_write_read's trips, each reading every address
        every = (0, 1, 2)
        assert suite[0] == MemoryProgram(trips=tuple(op._replace(reads=every) for op in scenario_write_read(address=1).trips))
        assert suite[1] == scenario_overwrite(address=1)
        assert suite[2] == scenario_address_sweep(3)

    def test_single_address_memory(self):
        cfg = SimConfig(frequency_hz=100 * GHZ, num_addresses=1)
        program = MemoryProgram(trips=(TripOp(write=(0, 1), reads=(0,)), TripOp(reads=(0,))))
        result = run_program(program, cfg)
        assert result.passed
        assert result.reads == {(0, 0): 1, (1, 0): 1}


class TestJitter:
    def test_window_at_100ghz(self, cfg100):
        w = jitter_tolerance(cfg100)
        assert (w.lo_fs, w.hi_fs) == (-4000, 2000)
        assert w.detect_below == (-7999, -4001)
        assert w.detect_above == (2001, 5999)

    def test_window_widens_at_low_frequency(self):
        cfg = SimConfig(frequency_hz=20 * GHZ, num_addresses=3)
        w = jitter_tolerance(cfg)
        assert (w.lo_fs, w.hi_fs) == (-44000, 2000)

    def test_no_slack_at_200ghz(self):
        cfg = SimConfig(frequency_hz=200 * GHZ, num_addresses=3)
        with pytest.raises(InfeasibleFrequencyError, match="no re-timing slack"):
            jitter_tolerance(cfg)

    @pytest.mark.parametrize(
        "jitter, kinds",
        [
            (2000, set()),  # exactly the guard: still clean
            (2001, {"SETUP"}),
            (-4000, set()),
            (-4001, {"HOLD"}),
        ],
    )
    def test_boundaries_are_exact(self, cfg100, jitter, kinds):
        cfg = cfg100._replace(loop_jitter_fs=(jitter,))
        result = run_program(scenario_write_read(address=1, trips=3), cfg)
        assert {v.kind.value for v in result.trace.violations} == kinds

    @pytest.mark.parametrize("jitter, at", [((0, -31500), 1), ((-30000,), 0), ((5, -29999, -40000), 2)])
    def test_a_non_positive_loop_is_refused_by_its_jitter_entry(self, cfg100, jitter, at):
        # the derived loop delay is 30000 fs at 100 GHz: the frequency is at fault, and the first
        # entry that cancels its loop is named
        cfg = cfg100._replace(loop_jitter_fs=jitter)
        message = f"loop_jitter[{at}]: at {100 * GHZ} Hz it makes trip {at}'s loop delay {30000 + jitter[at]} fs; it must stay positive"
        with pytest.raises(InfeasibleFrequencyError) as caught:
            build_controller(cfg)
        assert str(caught.value) == message
        with pytest.raises(InfeasibleFrequencyError, match=rf"^loop_jitter\[{at}\]: "):
            run_program(scenario_write_read(address=1, trips=3), cfg)
        # a lower frequency derives a longer loop, which the same jitter leaves positive
        assert build_controller(cfg.with_frequency(50 * GHZ))

    def test_a_given_loop_cancelled_by_its_jitter_is_a_config_error(self, cfg100):
        cfg = cfg100._replace(loop_delay_fs=1000, loop_jitter_fs=(0, -2500))
        with pytest.raises(ConfigError) as caught:
            build_controller(cfg)
        assert caught.value.field == "loop_jitter[1]"
        assert caught.value.message == "makes trip 1's loop delay -1500 fs; it must stay positive"

    def test_in_window_jitter_is_fully_retimed(self, cfg100):
        reference = run_program(scenario_write_read(address=1, trips=3), cfg100)
        for jitter in (-4000, -1500, 1, 2000):
            cfg = cfg100._replace(loop_jitter_fs=(jitter,))
            result = run_program(scenario_write_read(address=1, trips=3), cfg)
            assert result.passed
            # the re-timing clock swallows the error: downstream times match
            assert _oracle.pulses_on(result.trace, "loop_data_in") == _oracle.pulses_on(reference.trace, "loop_data_in")
            assert result.reads == reference.reads


def test_pulse_spacing():
    # fast stripline bits sit ~0.9 mm apart; slow nanowire bits ~21 um
    assert pulse_spacing(0.298 * 2.998e8, 100e9) == pytest.approx(8.93404e-4)
    assert pulse_spacing(0.007 * 2.998e8, 100e9) == pytest.approx(2.0986e-5)
    with pytest.raises(ValueError):
        pulse_spacing(0.0, 100e9)


#: A phase in [0, 1): drawn freely, or one just under 1, whose instant may round up to a whole interval.
phases = st.one_of(
    st.fractions(0, 1, max_denominator=10**4).filter(lambda p: p < 1),
    st.sampled_from([Fraction(0), Fraction(1, 2), *(1 - Fraction(1, 10**k) for k in (3, 4, 6, 7))]),
)


@st.composite
def trusted_builds(draw):
    """A config (1-8 addresses, 1-3 header intervals, 20 GHz-1 THz, phases
    whose instants may coincide or sit a whole interval in) and a program of
    0-6 trips, each with any write and any read set, in any order."""
    n = draw(st.integers(1, 8))
    read = draw(phases)
    write = draw(st.one_of(phases, st.just(read + Fraction(1, 10**6)), st.just(read + Fraction(1, 10**3))))
    assume(read < write < 1)
    data = draw(st.one_of(phases, st.just(read), st.just(write)))
    cfg = SimConfig(
        frequency_hz=draw(st.integers(20 * GHZ, 1000 * GHZ)), num_addresses=n,
        header_intervals=draw(st.integers(1, 3)), phase_read=read, phase_write=write, phase_data=data,
        loop_delay_fs=10**6,  # any positive loop: the stimulus does not read it, and every frequency builds
    )
    writes = st.none() | st.tuples(st.integers(0, n - 1), st.integers(0, 1))
    reads = st.lists(st.integers(0, n - 1), unique=True).map(tuple)
    trips = draw(st.lists(st.builds(TripOp, writes, reads), max_size=6))
    return cfg, MemoryProgram(tuple(trips))


def _reference_stimulus(program: MemoryProgram, cfg: SimConfig) -> list[tuple[int, str]]:
    """The program's pulses, written out per trip and address interval, with
    instants rounded half up in decimal (not the package's integer route)."""
    interval = _oracle.interval_fs(cfg.frequency_hz)
    trip = (cfg.header_intervals + cfg.num_addresses) * interval
    read, write, data = (_oracle.rhu(Decimal(p.numerator) * interval / p.denominator)
                         for p in (cfg.phase_read, cfg.phase_write, cfg.phase_data))
    pulses = []
    for t, op in enumerate(program.trips):
        if op.write is not None and op.write[1] == 1:
            pulses.append((t * trip + data, "write_data"))
        for k in range(cfg.num_addresses):
            slot = t * trip + (cfg.header_intervals + k) * interval
            pulses.append((slot + read, "read_address" if k in op.reads else "not_read_address"))
            written = op.write is not None and op.write[0] == k
            pulses.append((slot + write, "write_address" if written else "not_write_address"))
    return pulses


class _Prepared(Exception):
    """Carries the ``PreparedRun`` a run was handed, so the run stops there."""


@given(trusted_builds())
def test_the_trusted_stimulus_is_what_the_checked_constructor_builds(build):
    cfg, program = build
    net = build_controller(cfg)

    def capture(prepared, *args):
        raise _Prepared(prepared)

    with mock.patch.object(memory, "run_until", capture), pytest.raises(_Prepared) as caught:
        memory.prepare_program(program, cfg)(cfg.bias)
    trusted, reference = caught.value.args[0], _reference_stimulus(program, cfg)
    assert type(trusted) is PreparedRun and type(trusted.keys) is tuple
    assert trusted == PreparedRun(net, list(memory._stimulus_keys(program, cfg, net.lines))[::-1])
    assert trusted == schedule(net, reference)
    assert all(a < b for a, b in zip(trusted.keys, trusted.keys[1:]))
    assert stimulus_for(program, cfg) == sorted(reference)


def _old_read_checks(reads: list) -> tuple[str, str] | None:
    """The first read a trip refuses, as each read was checked one at a time: (field, message)."""
    for j, value in enumerate(reads):
        if type(value) is not int:
            return f"trips[0].reads[{j}]", f"expected an integer, got {json.dumps(value)}"
    for j, value in enumerate(reads):
        if value < 0:
            return f"trips[0].reads[{j}]", "addresses must be non-negative"
    return None


@given(st.lists(st.one_of(st.integers(-3, 5), st.booleans(), st.floats(-2, 2), st.text(max_size=2), st.none()),
                unique_by=lambda v: (type(v), v)))
@example([0, -1])
@example([-2, 1.0, True])
def test_a_trips_reads_are_refused_as_one_at_a_time(reads):
    want = _old_read_checks(reads)
    assume(want is not None)
    with pytest.raises(ConfigError) as exc:
        parse_program(json.dumps({"trips": [{"reads": reads}]}))
    assert (exc.value.field, exc.value.message) == want
    if all(type(v) is int for v in reads):
        with pytest.raises(ConfigError) as exc:
            TripOp(reads=tuple(reads))
        assert (f"trips[0].{exc.value.field}", exc.value.message) == want


#: Traced bytes per stimulus pulse that ``prepare_program`` and its run may
#: take at their peak: 106 measured (CPython 3.11-3.13; 103 on 3.10) on the
#: program below, plus 20%.
BYTES_PER_STIMULUS_PULSE = 128


def test_a_run_takes_a_bounded_number_of_bytes_per_stimulus_pulse():
    # 2,000 trips at 8 addresses, one write and two reads each: 33,000 stimulus pulses, 50,963 trace keys
    cfg = SimConfig(frequency_hz=100 * GHZ, num_addresses=8)
    program = MemoryProgram(tuple(TripOp((t % 8, t % 2), ((t + 3) % 8, (t + 5) % 8)) for t in range(2000)))
    memory.prepare_program(MemoryProgram(program.trips[:3]), cfg)(cfg.bias)  # compiles the kernel first
    pulses = len(stimulus_for(program, cfg))
    tracemalloc.start()
    try:
        result = memory.prepare_program(program, cfg)(cfg.bias)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (pulses, len(result.trace.keys), result.passed) == (33_000, 50_963, True)
    assert peak / pulses < BYTES_PER_STIMULUS_PULSE, peak / pulses
