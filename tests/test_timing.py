"""Characterization, worst-case slacks, frequency search, bias margins."""

from __future__ import annotations

import pickle
from fractions import Fraction
from functools import cached_property

import _oracle
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fluxloop import (
    BiasRangeError,
    ConfigError,
    InfeasibleFrequencyError,
    MarginReport,
    SimConfig,
    bias_margin,
    characterize_cell,
    jitter_tolerance,
    margin_sweep,
    max_frequency,
    required_loop_delay,
    run_program,
    sta,
)
from fluxloop import cells, core, engine, memory, timing
from fluxloop.cells import default_cell_params, delay_at_bias
from fluxloop.core import CELL_OVERRIDES, exact_ratio, format_ratio, interval_duration, round_half_up
from fluxloop.engine import RunawayQueueError
from fluxloop.memory import build_controller, default_margin_suite, oracle, scenario_write_read, source_path_delays
from fluxloop.timing import (
    characterization_to_csv,
    margins_to_csv,
    margins_to_text,
    sta_to_text,
)

GHZ = 10**9

#: Overrides that double every default cell timing (and need a doubled guard
#: to shift the whole design point from 100 GHz to exactly 50 GHz).
DOUBLED = {
    "write_dro": {"prop_delay": 6000, "setup": 4000, "hold": 2000},
    "recirc_dro2r": {"prop_delay": 6000, "setup": 6000, "hold": 2000},
    "merger": {"prop_delay": 3000, "min_separation": 4000},
    "fanout": {"prop_delay": 1000},
    "read_dro2r": {"prop_delay": 6000, "setup": 14000, "hold": 2000},
}

#: Overrides that zero every duration but the merger's separation; merger and
#: fan-out read no setup or hold, and theirs are 0 already.
ZEROED = {name: {key: 0 for key in ("prop_delay", "setup", "hold") if key in keys} for name, keys in CELL_OVERRIDES.items()}


#: Every cell modelled down to a bias of -1, so a window or run at a bias <= 0 passes every range check.
DOWN_TO_NEGATIVE = {name: {"bias_curve": [[-1, 2], [1, 1], [2, "1/2"]], "operating_range": [-1, 2]} for name in CELL_OVERRIDES}


class TestABiasIsAPositiveRatio:
    def test_a_library_config_takes_a_bare_fraction(self):
        cfg = SimConfig(frequency_hz=100 * GHZ, num_addresses=3, bias=Fraction(9, 10))
        assert cfg == core.parse_config('{"frequency": "100GHz", "num_addresses": 3, "bias": 0.9}')
        report = sta(cfg)
        assert (report.bias_lo, report.bias_hi) == (Fraction(9, 10), Fraction(9, 10)) and report.all_met
        program = scenario_write_read(1, 3)
        result = run_program(program, cfg)
        assert result.passed and result.reads == oracle(program, 3) and result.trace.bias == Fraction(9, 10)

    def test_a_float_bias_and_phases_are_their_shortest_repr(self):
        # a float bias once reached sta's window unconverted (AttributeError) and pinned a run at the binary float
        exact = SimConfig(frequency_hz=100 * GHZ, num_addresses=3, bias=Fraction("0.87"))
        drawn = SimConfig(frequency_hz=100 * GHZ, num_addresses=3, bias=0.87)
        assert drawn == exact and type(drawn.bias) is Fraction
        assert sta(drawn) == sta(exact) and sta_to_text(sta(drawn)) == sta_to_text(sta(exact))
        assert SimConfig(100 * GHZ, 3, bias="0.9", phase_read=0.2, phase_write=0.5, phase_data=0.5) == \
            SimConfig(100 * GHZ, 3, bias=Fraction(9, 10))
        program = scenario_write_read(1, 3)
        assert run_program(program, SimConfig(100 * GHZ, 3, bias=0.9)).trace.bias == Fraction(9, 10)

    @pytest.mark.parametrize("ratio", [0, Fraction(-1, 2)])
    def test_characterize_runs_no_cell_at_a_bias_that_is_not_positive(self, cfg100, ratio):
        # a constant-delay cell, and a modelled one whose range takes the bias, reach the run's check
        for overrides in ({"write_dro": {"prop_delay": 0}}, DOWN_TO_NEGATIVE):
            with pytest.raises(ValueError, match="^bias ratio must be positive$"):
                characterize_cell("write_dro", cfg100._replace(cell_overrides=overrides), [ratio])
        with pytest.raises(BiasRangeError, match="outside write_dro operating range"):  # a range check comes first
            characterize_cell("write_dro", cfg100, [ratio])

    @pytest.mark.parametrize("lo, hi", [(0, 1), (Fraction(-1, 2), Fraction(-1, 4))])
    def test_sta_refuses_a_window_that_is_not_positive_after_the_ranges(self, cfg100, lo, hi):
        for overrides in ({name: {"prop_delay": 0} for name in CELL_OVERRIDES}, DOWN_TO_NEGATIVE):
            with pytest.raises(ValueError, match="^bias ratio must be positive$"):
                sta(cfg100._replace(cell_overrides=overrides), lo, hi)
        with pytest.raises(BiasRangeError, match="exceeds write_dro operating range"):
            sta(cfg100, lo, hi)


class TestCharacterization:
    def test_simulated_delays_hit_the_curve_knots(self, cfg100):
        rows = characterize_cell("write_dro", cfg100, ["0.76", "0.86", "1.0", "1.14", "1.24"])
        assert rows == (
            (Fraction("0.76"), 4170),
            (Fraction("0.86"), 3630),
            (Fraction(1), 3000),
            (Fraction("1.14"), 2370),
            (Fraction("1.24"), 1770),
        )

    def test_pass_through_cells(self, cfg100):
        assert characterize_cell("merger", cfg100, ["0.76", "1.0", "1.24"]) == (
            (Fraction("0.76"), 2085),
            (Fraction(1), 1500),
            (Fraction("1.24"), 885),
        )
        assert characterize_cell("fanout", cfg100, ["0.76", "1.0", "1.24"]) == (
            (Fraction("0.76"), 695),
            (Fraction(1), 500),
            (Fraction("1.24"), 295),
        )

    def test_measurement_agrees_with_model_between_knots(self, cfg100):
        cells = default_cell_params()
        for name in ("recirc_dro2r", "read_dro2r"):
            (ratio, measured), = characterize_cell(name, cfg100, ["0.87"])
            assert measured == 3585
            assert measured == delay_at_bias(cells[name].delay_model, ratio)

    def test_sweep_is_strictly_decreasing(self, cfg100):
        ratios = [Fraction(76 + 4 * i, 100) for i in range(13)]  # 0.76 .. 1.24
        delays = [d for _, d in characterize_cell("read_dro2r", cfg100, ratios)]
        assert all(b < a for a, b in zip(delays, delays[1:]))

    def test_long_sweep_measures_every_ratio(self, cfg100):
        ratios = [Fraction("0.76") + Fraction(i, 10_000) for i in range(4800)]
        rows = characterize_cell("read_dro2r", cfg100, ratios)
        assert [ratio for ratio, _ in rows] == ratios
        assert all(b <= a for (_, a), (_, b) in zip(rows, rows[1:]))

    def test_out_of_range_bias_refused(self, cfg100):
        with pytest.raises(BiasRangeError, match="outside write_dro operating range"):
            characterize_cell("write_dro", cfg100, ["0.5"])

    def test_unknown_cell(self, cfg100):
        with pytest.raises(KeyError, match="unknown cell"):
            characterize_cell("jj_array", cfg100, ["1.0"])

    def test_csv_rendering(self, cfg100):
        rows = characterize_cell("write_dro", cfg100, ["0.76", "1.0"])
        assert characterization_to_csv(rows) == "bias_ratio,delay_fs\n0.76,4170\n1.0,3000\n"


class TestSta:
    def test_nominal_slacks(self, cfg100):
        report = sta(cfg100)
        assert report.loop_delay_fs == 30000
        assert {r.constraint: r.slack_fs for r in report.slacks} == {
            "write_setup": 8000,
            "write_hold": 9000,
            "recirc_setup": 2000,
            "recirc_hold": 4000,
            "recirc_period": 4000,
            "read_setup": 1000,
            "read_hold": 1000,
            "read_period": 0,
            "loop_race": 2000,
        }
        assert report.all_met
        # the read period rating binds exactly at the design frequency
        assert report.worst().constraint == "read_period"

    def test_nominal_arrival_windows(self, cfg100):
        report = sta(cfg100)
        assert [(w.node, w.earliest_fs, w.latest_fs) for w in report.windows] == [
            ("merger_in0", 3000, 3000),
            ("merger_in1", 3000, 3000),
            ("loop_data_in", 5000, 5000),
            ("read_data", 8000, 8000),
            ("recirc_data_next_trip", -5000, -5000),
        ]

    def test_thirteen_percent_window_still_meets(self, cfg100):
        report = sta(cfg100, "0.87", "1.13")
        assert report.all_met
        assert {r.constraint: r.slack_fs for r in report.slacks} == {
            "write_setup": 8000,
            "write_hold": 9000,
            "recirc_setup": 1024,
            "recirc_hold": 3026,
            "recirc_period": 4000,
            "read_setup": 26,
            "read_hold": 24,
            "read_period": 0,
            "loop_race": 1024,
        }
        assert [(w.node, w.earliest_fs, w.latest_fs) for w in report.windows] == [
            ("merger_in0", 2415, 3585),
            ("merger_in1", 2415, 3585),
            ("loop_data_in", 4026, 5976),
            ("read_data", 6441, 9561),
            ("recirc_data_next_trip", -5974, -4024),
        ]

    def test_fourteen_percent_window_breaks_read_races(self, cfg100):
        report = sta(cfg100, "0.86", "1.14")
        assert not report.all_met
        by_name = {r.constraint: r.slack_fs for r in report.slacks}
        assert by_name["read_setup"] == -50
        assert by_name["read_hold"] == -50
        assert report.worst().constraint == "read_hold"

    def test_explicit_loop_delay_shifts_the_recirc_races(self, cfg100):
        report = sta(cfg100._replace(loop_delay_fs=20000))
        by_name = {r.constraint: r.slack_fs for r in report.slacks}
        assert by_name["recirc_setup"] == 12000
        assert by_name["recirc_hold"] == -6000
        assert report.worst().constraint == "recirc_hold"

    def test_loop_jitter_moves_the_recirc_rows(self, cfg100):
        # trip 1's loop runs 2500 fs late, past the 2000 fs recirc_setup slack; trip 2's 1500 fs early
        report = sta(cfg100._replace(loop_jitter_fs=(0, 2500, -1500)))
        by_name = {r.constraint: r.slack_fs for r in report.slacks}
        assert (by_name["recirc_setup"], by_name["recirc_hold"]) == (2000 - 2500, 4000 - 1500)
        assert report.windows[-1] == ("recirc_data_next_trip", -5000 - 1500, -5000 + 2500)
        assert report.worst().constraint == "recirc_setup"
        # jitter of one sign moves only its own row
        assert sta(cfg100._replace(loop_jitter_fs=(300, 0))).slack_fs[2:4] == (1700, 4000)
        assert sta(cfg100._replace(loop_jitter_fs=(-300,))).slack_fs[2:4] == (2000, 3700)

    def test_jitter_tolerance_reads_the_jitter_free_rows(self, cfg100):
        jittered = cfg100._replace(loop_jitter_fs=(0, 2500, 0))
        assert not sta(jittered).all_met
        assert jitter_tolerance(jittered) == jitter_tolerance(cfg100)
        assert (jitter_tolerance(jittered).lo_fs, jitter_tolerance(jittered).hi_fs) == (-4000, 2000)

    def test_low_frequency_supports_the_full_electrical_range(self):
        cfg = SimConfig(frequency_hz=20 * GHZ, num_addresses=3)
        report = sta(cfg, "0.76", "1.24")
        assert report.all_met
        by_name = {r.constraint: r.slack_fs for r in report.slacks}
        assert by_name["recirc_setup"] == 50  # tightest: the loop is sized at nominal
        assert by_name["read_setup"] == 10950

    def test_window_outside_electrical_range_rejected(self):
        cfg = SimConfig(frequency_hz=20 * GHZ, num_addresses=3)
        with pytest.raises(BiasRangeError, match="exceeds write_dro operating range"):
            sta(cfg, "0.7", "1.3")
        with pytest.raises(ValueError, match="bias_lo must not exceed bias_hi"):
            sta(cfg, "1.1", "0.9")

    def test_text_rendering(self, cfg100):
        assert sta_to_text(sta(cfg100)) == (
            "frequency 100 GHz, bias window [1.0, 1.0], loop delay 30000 fs\n"
            "\n"
            "constraint     cell           slack_fs\n"
            "write_setup    write_dro          8000\n"
            "write_hold     write_dro          9000\n"
            "recirc_setup   recirc_dro2r       2000\n"
            "recirc_hold    recirc_dro2r       4000\n"
            "recirc_period  recirc_dro2r       4000\n"
            "read_setup     read_dro2r         1000\n"
            "read_hold      read_dro2r         1000\n"
            "read_period    read_dro2r            0\n"
            "loop_race      read_dro2r         2000\n"
            "\n"
            "arrival windows (fs after the interval write instant):\n"
            "  merger_in0             [3000, 3000]\n"
            "  merger_in1             [3000, 3000]\n"
            "  loop_data_in           [5000, 5000]\n"
            "  read_data              [8000, 8000]\n"
            "  recirc_data_next_trip  [-5000, -5000]\n"
            "\n"
            "timing met\n"
        )


class TestMaxFrequency:
    def test_design_point_is_100ghz(self, cfg100):
        assert max_frequency(cfg100) == 100 * GHZ

    def test_step_granularity(self, cfg100):
        assert max_frequency(cfg100, step_hz=5 * GHZ) == 100 * GHZ

    def test_doubled_cells_halve_the_rating(self, cfg100):
        cfg = cfg100._replace(cell_overrides=DOUBLED, retiming_guard_fs=4000)
        assert max_frequency(cfg) == 50 * GHZ

    def test_unconstrained_cells_hit_the_search_ceiling(self, cfg100):
        cfg = cfg100._replace(cell_overrides=ZEROED, retiming_guard_fs=0)
        assert max_frequency(cfg) == 10**12
        # the guard alone then caps the recirculation hold race at 500 GHz
        assert max_frequency(cfg100._replace(cell_overrides=ZEROED)) == 500 * GHZ

    def test_a_ceiling_below_one_step_is_a_config_error(self, cfg100):
        with pytest.raises(ConfigError, match=r"^search_ceiling: 1 Hz is below the 1000000000 Hz scan step$"):
            max_frequency(cfg100._replace(search_ceiling_hz=1))
        with pytest.raises(ConfigError, match="search_ceiling: 4000000000 Hz is below the 5000000000 Hz scan step"):
            max_frequency(cfg100._replace(search_ceiling_hz=4 * GHZ), step_hz=5 * GHZ)
        assert max_frequency(cfg100._replace(search_ceiling_hz=GHZ)) == GHZ

    def test_a_ceiling_past_the_scan_cap_is_a_config_error(self, cfg100):
        cap = timing.MAX_SCAN_POINTS
        message = rf"^search_ceiling: {(cap + 1) * GHZ} Hz puts {cap + 1} points on the {GHZ} Hz scan grid \(at most {cap}\)$"
        with pytest.raises(ConfigError, match=message):
            max_frequency(cfg100._replace(search_ceiling_hz=(cap + 1) * GHZ))
        assert max_frequency(cfg100._replace(search_ceiling_hz=cap * GHZ)) == 100 * GHZ

    def test_raises_when_no_grid_point_fits(self, cfg100):
        cfg = cfg100._replace(search_ceiling_hz=500 * GHZ)
        with pytest.raises(InfeasibleFrequencyError, match="no feasible frequency"):
            max_frequency(cfg, step_hz=400 * GHZ)

    @pytest.mark.parametrize("step_hz", [0, -GHZ])
    def test_a_step_that_is_not_positive_is_refused(self, cfg100, step_hz):
        # 0 divided the ceiling by zero; a negative step scanned no point and reported none feasible
        with pytest.raises(ValueError, match=rf"^step_hz must be positive, got {step_hz}$"):
            max_frequency(cfg100, step_hz)

    @settings(max_examples=200, deadline=None)
    @given(budget=st.integers(1, 10**30), short=st.integers(0, 10**30), hz=st.integers(1, 10**30))
    def test_the_budget_miss_reads_as_the_formatted_message(self, budget, short, hz):
        # the miss is raised as a template and its values: the text is built only when read
        trip = max(1, budget - short)
        with pytest.raises(InfeasibleFrequencyError) as caught:
            raise InfeasibleFrequencyError(memory.BUDGET_MISS, budget, trip, hz)
        message = f"controller re-timing budget {budget} fs does not fit in a {trip} fs trip at {hz} Hz"
        for exc in (caught.value, pickle.loads(pickle.dumps(caught.value))):
            assert type(exc) is InfeasibleFrequencyError and str(exc) == message

    def test_sta_and_required_loop_delay_raise_the_same_budget_miss(self):
        cfg = SimConfig(frequency_hz=10**12, num_addresses=3)
        message = "controller re-timing budget 10000 fs does not fit in a 4000 fs trip at 1000000000000 Hz"
        for call in (sta, required_loop_delay):
            with pytest.raises(InfeasibleFrequencyError) as caught:
                call(cfg)
            assert type(caught.value) is InfeasibleFrequencyError and str(caught.value) == message
            assert f"{caught.value}" == message and caught.value.args[1:] == (10000, 4000, 10**12)


class TestBiasMargin:
    def test_design_point_margins(self, cfg100):
        assert bias_margin(cfg100) == MarginReport(100 * GHZ, 13, 13, "HOLD", "SETUP")

    def test_margins_widen_at_lower_frequencies(self):
        assert bias_margin(SimConfig(frequency_hz=75 * GHZ, num_addresses=3)) == MarginReport(
            75 * GHZ, 24, 23, "ELECTRICAL", "SETUP"
        )
        assert bias_margin(SimConfig(frequency_hz=50 * GHZ, num_addresses=3)) == MarginReport(
            50 * GHZ, 24, 24, "ELECTRICAL", "ELECTRICAL"
        )

    def test_verdict_does_not_depend_on_scenario_order(self, cfg100):
        reversed_suite = tuple(reversed(default_margin_suite(cfg100)))
        assert bias_margin(cfg100, reversed_suite) == bias_margin(cfg100)

    def test_nominal_violation_reports_no_margin(self, cfg100):
        # a loop 25 ps short lands bits against the re-timing clock edge
        broken = cfg100._replace(loop_delay_fs=5000)
        assert bias_margin(broken) == MarginReport(100 * GHZ, None, None, "SETUP", "SETUP")

    def test_clean_aliasing_is_caught_by_the_read_oracle(self, cfg100):
        # a loop exactly one interval short re-times cleanly into the wrong
        # slot: no violation fires, only the decoded reads betray it
        aliased = cfg100._replace(loop_delay_fs=20000)
        assert bias_margin(aliased) == MarginReport(100 * GHZ, None, None, "WRONG_READ", "WRONG_READ")

    def test_margin_cap(self, cfg100):
        report = bias_margin(SimConfig(frequency_hz=20 * GHZ, num_addresses=3), max_pct=10)
        assert report == MarginReport(20 * GHZ, 10, 10, None, None)

    def test_a_scan_longer_than_the_step_cache_matches_a_fresh_scan(self):
        # every cell runs over [0.1, 1.9], so the scan takes 72 steps down (SETUP stops it) and 80 up
        wide = {"operating_range": [0.1, 1.9], "bias_curve": [[0.1, 1.5], [1, 1], [1.9, 0.5]]}
        wide = {name: wide for name in CELL_OVERRIDES}
        cfg = SimConfig(frequency_hz=20 * GHZ, num_addresses=3, cell_overrides=wide)
        want = reference_margin(cfg, 80)
        assert want == MarginReport(20 * GHZ, 72, 80, "SETUP", None)
        timing._step_bias.cache_clear()
        assert bias_margin(cfg, max_pct=80) == want
        info = timing._step_bias.cache_info()
        assert info.misses == 1 + 73 + 80 > info.maxsize == info.currsize
        assert bias_margin(cfg, max_pct=80) == want  # on the steps the cache kept

    def test_empty_scenario_list_rejected(self, cfg100):
        with pytest.raises(ValueError, match="at least one scenario"):
            bias_margin(cfg100, ())

    def test_every_scenario_is_sized_before_any_stimulus_is_built(self, cfg100, monkeypatch):
        # the default suite's stimuli are 19, 25 and 27 pulses: only the last is over
        built = []
        stimulus_keys = memory._stimulus_keys

        def spy(program, cfg, lines):
            built.append(program)
            return stimulus_keys(program, cfg, lines)

        monkeypatch.setattr(memory, "_stimulus_keys", spy)
        with pytest.raises(RunawayQueueError, match="stimulus of 27 pulses exceeds the bound of 26 events"):
            bias_margin(cfg100._replace(max_events=26))
        assert built == []
        bias_margin(cfg100)  # the spy sees each stimulus built
        assert len(built) == 3

    @pytest.mark.parametrize(
        "num_addresses, max_events, sweeps",
        [
            (3, 26, 0),  # the sweep (27 pulses) is over: refused before it is built
            (1, 8, 1),  # the sweep (5) fits, the overwrite scenario (9) is over
        ],
    )
    def test_an_oversized_suite_is_refused_before_its_oracle(self, num_addresses, max_events, sweeps, monkeypatch):
        calls = {"oracle": 0, "sweep": 0}
        oracle, sweep = timing.oracle, memory.scenario_address_sweep

        def oracle_spy(program, n):
            calls["oracle"] += 1
            return oracle(program, n)

        def sweep_spy(n):
            calls["sweep"] += 1
            return sweep(n)

        monkeypatch.setattr(timing, "oracle", oracle_spy)
        monkeypatch.setattr(memory, "scenario_address_sweep", sweep_spy)
        cfg = SimConfig(frequency_hz=100 * GHZ, num_addresses=num_addresses, max_events=max_events)
        with pytest.raises(RunawayQueueError, match="exceeds the bound"):
            bias_margin(cfg)
        assert calls == {"oracle": 0, "sweep": sweeps}
        bias_margin(cfg._replace(max_events=10_000))
        assert calls == {"oracle": 3, "sweep": sweeps + 1}


#: (cell overrides, retiming guard fs, frequency GHz) of the agreement cases.
AGREEMENT_CASES = [({}, 2000, ghz) for ghz in (20, 50, 75, 100)] + [(DOUBLED, 4000, ghz) for ghz in (25, 50)]


class TestStaAgreesWithSimulation:
    """The STA window at each empirical bias margin meets timing, and one
    percent wider fails the race that stopped the simulation (SETUP or HOLD)
    or leaves the electrical range (ELECTRICAL)."""

    @pytest.mark.parametrize("overrides, guard, ghz", AGREEMENT_CASES)
    def test_margin_edges(self, overrides, guard, ghz):
        cfg = SimConfig(frequency_hz=ghz * GHZ, num_addresses=3, cell_overrides=overrides, retiming_guard_fs=guard)
        margin = bias_margin(cfg)
        sides = ((-1, margin.lower_pct, margin.lower_limiter), (1, margin.upper_pct, margin.upper_limiter))
        for sign, pct, limiter in sides:

            def window(p: int) -> tuple[Fraction, Fraction]:
                edge = 1 + sign * Fraction(p, 100)
                return (edge, Fraction(1)) if sign < 0 else (Fraction(1), edge)

            assert sta(cfg, *window(pct)).all_met
            if limiter == "ELECTRICAL":
                with pytest.raises(BiasRangeError):
                    sta(cfg, *window(pct + 1))
            else:
                assert limiter in ("SETUP", "HOLD")
                wider = sta(cfg, *window(pct + 1))
                assert not wider.all_met
                assert wider.worst().constraint.endswith("_" + limiter.lower())


#: Per-cell overrides of the timing figures that sta and the simulator share,
#: each drawn cell setting only those of them it reads.
_drawn_overrides = st.lists(st.sampled_from(tuple(CELL_OVERRIDES)), min_size=1, max_size=3, unique=True).flatmap(
    lambda names: st.fixed_dictionaries({
        name: st.dictionaries(
            st.sampled_from([key for key in ("prop_delay", "setup", "hold") if key in CELL_OVERRIDES[name]]),
            st.integers(0, 8000),
            min_size=1,
        )
        for name in names
    })
)


class TestStaAgreesWithSimulationOnDrawnCells:
    """On drawn cell overrides, the widest STA window that meets timing on
    each side of nominal is the empirical bias margin.

    The ``*_period`` rows are left out: they rate the design point's
    throughput at nominal bias whatever the window (see ``sta``), and the
    pulse-level model has no event they would describe, so a failing period
    row has no simulated counterpart.  A SETUP or HOLD limiter need not name
    the kind of the STA row that fails one percent further out: a data pulse
    that lands just after its clock fails the STA setup row, and the
    simulator reports it as a hold violation against that clock (or, when
    one bias step carries it past a setup-plus-hold window only a few fs
    wide, only as a wrong read).
    """

    @staticmethod
    def failing_rows(cfg: SimConfig, lo: Fraction, hi: Fraction) -> list[str] | None:
        """The non-period rows sta fails on [lo, hi]; None past a cell's electrical range."""
        try:
            report = sta(cfg, lo, hi)
        except BiasRangeError:
            return None
        return [row.constraint for row in report.slacks if row.slack_fs < 0 and not row.constraint.endswith("_period")]

    @settings(max_examples=30, deadline=None)
    @given(overrides=_drawn_overrides, ghz=st.sampled_from((50, 75, 100)))
    # a 1% lower margin, set by the write-sourced read hold, which only the
    # address sweep's reads of each fresh write's successor exercise
    @example(overrides={"write_dro": {"prop_delay": 3900, "setup": 2500, "hold": 400}}, ghz=100)
    def test_widest_met_window_is_the_margin(self, overrides, ghz):
        cfg = SimConfig(frequency_hz=ghz * GHZ, num_addresses=3, cell_overrides=overrides)
        try:
            margin = bias_margin(cfg)
        except (ConfigError, InfeasibleFrequencyError) as exc:
            # a delay curve the override breaks, or a loop that cannot fit the trip
            with pytest.raises(type(exc)):
                sta(cfg)
            return
        nominal_fails = bias_margin(cfg, max_pct=0).lower_limiter is not None
        assert (self.failing_rows(cfg, Fraction(1), Fraction(1)) != []) == nominal_fails
        if nominal_fails:
            return
        sides = ((-1, margin.lower_pct, margin.lower_limiter), (1, margin.upper_pct, margin.upper_limiter))
        for sign, pct, limiter in sides:

            def window(p: int) -> tuple[Fraction, Fraction]:
                edge = 1 + sign * Fraction(p, 100)
                return (edge, Fraction(1)) if sign < 0 else (Fraction(1), edge)

            assert self.failing_rows(cfg, *window(pct)) == []
            if limiter is None:  # the scan's 50% cap
                continue
            wider = self.failing_rows(cfg, *window(pct + 1))
            if limiter == "ELECTRICAL":
                assert wider is None
            else:
                assert wider, (sign, pct, limiter)


class TestJitterToleranceAgreesWithSimulation:
    """On drawn write/recirculation path delays and loop delays, the window
    ``jitter_tolerance`` reads off ``sta`` is exactly what simulation shows,
    with the error on the trip that writes the bit (a fresh bit) and on the
    next trip (a recirculated bit)."""

    PROGRAM = scenario_write_read(address=1, trips=4)

    def runs(self, cfg: SimConfig, jitter: int) -> list:
        return [
            run_program(self.PROGRAM, cfg._replace(loop_jitter_fs=offsets))
            for offsets in ((jitter, 0, 0, 0), (0, jitter, 0, 0))
        ]

    @settings(max_examples=100, deadline=None)
    @given(
        # below 2 ps a fresh bit reaches read_dro2r inside its setup window whatever the jitter
        write_prop=st.integers(2000, 6000),
        recirc_prop=st.integers(2000, 6000),
        loop_shift=st.none() | st.integers(-2000, 2000),
        ghz=st.sampled_from((20, 50, 100)),
        data=st.data(),
    )
    @example(write_prop=4000, recirc_prop=3000, loop_shift=None, ghz=100, data=None)
    @example(write_prop=2000, recirc_prop=3000, loop_shift=None, ghz=100, data=None)
    @example(write_prop=3000, recirc_prop=3000, loop_shift=1000, ghz=100, data=None)
    def test_window_and_detect_bands(self, write_prop, recirc_prop, loop_shift, ghz, data):
        overrides = {"write_dro": {"prop_delay": write_prop}, "recirc_dro2r": {"prop_delay": recirc_prop}}
        cfg = SimConfig(frequency_hz=ghz * GHZ, num_addresses=3, cell_overrides=overrides)
        try:
            if loop_shift is not None:
                cfg = cfg._replace(loop_delay_fs=required_loop_delay(cfg) + loop_shift)
            window = jitter_tolerance(cfg)
        except InfeasibleFrequencyError:
            assume(False)
        reference = _oracle.pulses_on(run_program(self.PROGRAM, cfg).trace, "loop_data_in")

        for jitter in (window.lo_fs, window.hi_fs, (window.lo_fs + window.hi_fs) // 2):
            for result in self.runs(cfg, jitter):
                assert result.passed, jitter
                assert _oracle.pulses_on(result.trace, "loop_data_in") == reference, jitter
        for jitter in (window.lo_fs - 1, window.hi_fs + 1):
            assert not all(result.passed for result in self.runs(cfg, jitter)), jitter
        for first, last in (window.detect_below, window.detect_above):
            if first > last:  # the sources' spread fills the setup + hold band
                continue
            points = (first, last) if data is None else (data.draw(st.integers(first, last), label="jitter"),)
            for jitter in points:
                assert not any(result.passed for result in self.runs(cfg, jitter)), jitter


class TestStaPassMeansSimulationPass:
    """On drawn cells, phases, header, loop delay, loop jitter and frequency,
    a config whose non-period ``sta`` rows all meet at nominal runs clean in
    simulation: a drawn program that reads every address on every trip reads
    as the oracle with no violation, and the default margin suite passes at
    nominal.  Only this direction holds: the suite and a random program need
    not exercise the row ``sta`` fails."""

    @settings(max_examples=60, deadline=None)
    @given(
        overrides=st.just({}) | _drawn_overrides,
        ghz=st.integers(20, 100),
        num_addresses=st.integers(1, 4),
        header=st.integers(1, 3),
        # in hundredths, read before write, as the config requires; data anywhere in the interval.  100 stands
        # for 1 - 1/(2 interval), the least phase that rounds to a whole interval: the next interval's start
        phases=st.tuples(st.lists(st.integers(0, 99) | st.just(100), min_size=2, max_size=2, unique=True).map(sorted),
                         st.integers(0, 99) | st.just(100)).map(lambda p: (*p[0], p[1])),
        # none (the required delay), a shift of the required delay, or a delay in fs
        loop_delay=st.none() | st.tuples(st.just("shift"), st.integers(-3000, 3000)) | st.tuples(st.just("fs"), st.integers(1, 250_000)),
        jitter=st.lists(st.integers(-5000, 5000), max_size=4),
        data=st.data(),
    )
    # the loop jitter late by more than the recirc_setup slack: SETUP at recirc_dro2r
    @example(overrides={}, ghz=100, num_addresses=3, header=1, phases=(20, 50, 50), loop_delay=None, jitter=[0, 2500, 0], data=None)
    # a loop 1 fs long: the bit aliases into another address, which only a read there shows
    @example(overrides={}, ghz=100, num_addresses=3, header=1, phases=(20, 50, 50), loop_delay=("fs", 1), jitter=[], data=None)
    # the write a whole interval in: sta fails read_hold and the loop race, and the run records SETUP
    @example(overrides={}, ghz=100, num_addresses=3, header=1, phases=(20, 100, 50), loop_delay=None, jitter=[], data=None)
    # the data a whole interval in: sta and the run both pass
    @example(overrides={}, ghz=100, num_addresses=3, header=1, phases=(20, 50, 100), loop_delay=None, jitter=[], data=None)
    def test_met_rows_run_clean(self, overrides, ghz, num_addresses, header, phases, loop_delay, jitter, data):
        whole = 1 - Fraction(1, 2 * interval_duration(SimConfig(frequency_hz=ghz * GHZ, num_addresses=1)))
        phase_read, phase_write, phase_data = (whole if k == 100 else Fraction(k, 100) for k in phases)
        try:
            cfg = SimConfig(
                frequency_hz=ghz * GHZ, num_addresses=num_addresses, header_intervals=header, phase_read=phase_read,
                phase_write=phase_write, phase_data=phase_data, loop_jitter_fs=tuple(jitter), cell_overrides=overrides,
            )
            if loop_delay is not None:
                kind, value = loop_delay
                cfg = cfg._replace(loop_delay_fs=value if kind == "fs" else required_loop_delay(cfg) + value)
            report = sta(cfg, 1, 1)
            if any(row.slack_fs < 0 for row in report.slacks if not row.constraint.endswith("_period")):
                return
            every = tuple(range(num_addresses))
            trips = len(jitter) + 2
            if data is None:
                writes = [(t % num_addresses, 1 - t % 2) for t in range(trips)]
            else:
                writes = data.draw(st.lists(st.none() | st.tuples(st.integers(0, num_addresses - 1), st.integers(0, 1)),
                                            min_size=trips, max_size=trips), label="writes")
            program = memory.MemoryProgram(tuple(memory.TripOp(write=w, reads=every) for w in writes))
            result = run_program(program, cfg)
            margin = bias_margin(cfg, max_pct=0)
        except (ConfigError, InfeasibleFrequencyError, BiasRangeError):
            return  # a config the code refuses
        assert result.trace.violations == ()
        assert result.reads == memory.oracle(program, num_addresses)
        assert margin.lower_limiter is None and margin.upper_limiter is None


def reference_margin(cfg: SimConfig, max_pct: int) -> MarginReport:
    """``bias_margin``'s scan of the default suite, each step's bias built afresh as
    ``Fraction(100 ± p, 100)`` and each scenario run by ``run_program``."""
    suite = default_margin_suite(cfg)

    def failure(pct: int) -> str | None:
        results = [run_program(program, cfg.with_bias(Fraction(100 + pct, 100))) for program in suite]
        violations = [v for result in results for v in result.trace.violations]
        if violations:
            return min(violations, key=lambda v: (v.time_fs, v.cell, v.kind.value)).kind.value
        wrong = any(result.reads != oracle(program, cfg.num_addresses) for result, program in zip(results, suite))
        return "WRONG_READ" if wrong else None

    if (nominal := failure(0)) is not None:
        return MarginReport(cfg.frequency_hz, None, None, nominal, nominal)
    bounds = []
    for sign in (-1, 1):
        for pct in range(1, max_pct + 1):
            if (cause := failure(sign * pct)) is not None:
                bounds.append((pct - 1, cause))
                break
        else:
            bounds.append((max_pct, None))
    (lower, lower_limiter), (upper, upper_limiter) = bounds
    return MarginReport(cfg.frequency_hz, lower, upper, lower_limiter, upper_limiter)


def reference_sta(cfg: SimConfig, bias_lo=None, bias_hi=None) -> tuple:
    """sta written out plainly: every cell pinned and every instant rounded
    through Fractions on each call.  Returns (loop delay, rows, windows) or
    raises what sta must raise, in the same order."""
    lo = exact_ratio(bias_lo) if bias_lo is not None else cfg.bias
    hi = exact_ratio(bias_hi) if bias_hi is not None else cfg.bias
    if lo > hi:
        raise ValueError("bias_lo must not exceed bias_hi")
    cells = default_cell_params(cfg.cell_overrides)
    for name, params in cells.items():
        rng = params.operating_range()
        if rng is not None and not (rng[0] <= lo and hi <= rng[1]):
            raise BiasRangeError(
                f"bias window [{format_ratio(lo)}, {format_ratio(hi)}] exceeds {name} "
                f"operating range [{format_ratio(rng[0])}, {format_ratio(rng[1])}]"
            )
    at_lo = {name: p.at_bias(lo) for name, p in cells.items()}
    at_hi = {name: p.at_bias(hi) for name, p in cells.items()}

    interval = round_half_up(Fraction(10**15, cfg.frequency_hz))
    header = cfg.header_intervals * interval
    trip = header + cfg.num_addresses * interval
    loop_delay = cfg.loop_delay_fs
    if loop_delay is None:
        budget = source_path_delays(cells)[1] + cells["recirc_dro2r"].setup_fs + cfg.retiming_guard_fs
        if budget >= trip:
            raise InfeasibleFrequencyError(
                f"controller re-timing budget {budget} fs does not fit in a "
                f"{trip} fs trip at {cfg.frequency_hz} Hz"
            )
        loop_delay = trip - budget
    phases = (cfg.phase_read, cfg.phase_write, cfg.phase_data)
    ph_read, ph_write, ph_data = (round_half_up(p * interval) for p in phases)
    path_min = min(source_path_delays(at_hi))
    path_max = max(source_path_delays(at_lo))
    # the recirculated bit's arrival, over every trip's loop (a trip past the jitter list adds 0)
    next_min = path_min + loop_delay + min((0, *cfg.loop_jitter_fs)) - trip
    next_max = path_max + loop_delay + max((0, *cfg.loop_jitter_fs)) - trip
    wd, rc, rd = cells["write_dro"], cells["recirc_dro2r"], cells["read_dro2r"]
    rows = [
        ("write_setup", "write_dro", header + ph_write - ph_data - wd.setup_fs),
        ("write_hold", "write_dro", interval + ph_data - ph_write - wd.hold_fs),
        ("recirc_setup", "recirc_dro2r", -next_max - rc.setup_fs),
        ("recirc_hold", "recirc_dro2r", next_min + interval - rc.hold_fs),
        ("recirc_period", "recirc_dro2r", interval - rc.setup_fs - rc.prop_delay_fs),
        ("read_setup", "read_dro2r", ph_write + path_min - ph_read - rd.setup_fs),
        ("read_hold", "read_dro2r", interval + ph_read - ph_write - path_max - rd.hold_fs),
        ("read_period", "read_dro2r", interval - rd.setup_fs - rd.prop_delay_fs),
        ("loop_race", "read_dro2r", interval + ph_read - ph_write - path_max),
    ]
    windows = [
        ("merger_in0", at_hi["write_dro"].prop_delay_fs, at_lo["write_dro"].prop_delay_fs),
        ("merger_in1", at_hi["recirc_dro2r"].prop_delay_fs, at_lo["recirc_dro2r"].prop_delay_fs),
        ("loop_data_in", path_min, path_max),
        ("read_data", path_min + at_hi["read_dro2r"].prop_delay_fs, path_max + at_lo["read_dro2r"].prop_delay_fs),
        ("recirc_data_next_trip", next_min, next_max),
    ]
    return loop_delay, rows, windows


def reference_text(cfg: SimConfig, lo: Fraction, hi: Fraction, loop_delay: int, rows: list, windows: list) -> str:
    """The sta report rendered row by row, as sta_to_text must."""
    worst = min(rows, key=lambda row: (row[2], row[0]))
    lines = [
        f"frequency {cfg.frequency_hz / 1e9:g} GHz, bias window [{format_ratio(lo)}, {format_ratio(hi)}], "
        f"loop delay {loop_delay} fs",
        "",
        f"{'constraint':<14} {'cell':<13} {'slack_fs':>9}",
    ]
    for constraint, cell, slack in rows:
        lines.append(f"{constraint:<14} {cell:<13} {slack:>9}")
    lines.append("")
    lines.append("arrival windows (fs after the interval write instant):")
    for node, earliest, latest in windows:
        lines.append(f"  {node:<22} [{earliest}, {latest}]")
    lines.append("")
    lines.append("timing met" if worst[2] >= 0 else f"timing VIOLATED ({worst[0]})")
    return "\n".join(lines) + "\n"


#: A bias window edge inside every stock cell's operating range [0.76, 1.24], or the config bias.
_drawn_edge = st.none() | st.integers(7600, 12400).map(lambda k: Fraction(k, 10_000))


class TestStaMatchesReference:
    """sta against :func:`reference_sta` on drawn cells, frequencies, windows
    and loop delays: the same rows, windows, verdict and text, or the same
    error with the same message."""

    @settings(max_examples=150, deadline=None)
    @given(
        overrides=_drawn_overrides,
        # whole GHz over the scan's range, or any Hz below 200 GHz, where most configs are feasible
        hz=st.integers(1, 1000).map(lambda ghz: ghz * GHZ) | st.integers(GHZ, 200 * GHZ),
        # two given edges in order; an edge left to the config bias may still fall out of order
        edges=st.tuples(_drawn_edge, _drawn_edge).map(lambda e: tuple(sorted(e)) if None not in e else e),
        loop_delay=st.none() | st.integers(1, 200_000),
        jitter=st.lists(st.integers(-8000, 8000), max_size=4),
    )
    @example(
        overrides={"merger": {"prop_delay": 2000}}, hz=100 * GHZ, edges=(Fraction("0.87"), Fraction("1.13")), loop_delay=None,
        jitter=[],
    )
    @example(overrides={"read_dro2r": {"setup": 9000}}, hz=1000 * GHZ, edges=(None, None), loop_delay=None, jitter=[])
    @example(
        overrides={"fanout": {"prop_delay": 500}}, hz=100 * GHZ, edges=(Fraction("1.1"), Fraction("0.9")), loop_delay=5, jitter=[]
    )
    @example(
        overrides={"fanout": {"prop_delay": 500}}, hz=100 * GHZ, edges=(Fraction("0.5"), Fraction("1.13")), loop_delay=None,
        jitter=[],
    )
    @example(overrides={"merger": {"prop_delay": 1}}, hz=100 * GHZ, edges=(None, None), loop_delay=None, jitter=[])
    # read_setup and read_hold tie at -50 fs: worst() breaks the tie by name
    @example(
        overrides={"fanout": {"prop_delay": 500}}, hz=100 * GHZ, edges=(Fraction("0.86"), Fraction("1.14")), loop_delay=None,
        jitter=[],
    )
    # a late and an early trip: recirc_setup and recirc_hold each lose one of them
    @example(
        overrides={"fanout": {"prop_delay": 500}}, hz=100 * GHZ, edges=(None, None), loop_delay=None, jitter=[700, -900]
    )
    def test_same_report_or_same_error(self, overrides, hz, edges, loop_delay, jitter):
        cfg = SimConfig(
            frequency_hz=hz, num_addresses=3, cell_overrides=overrides, loop_delay_fs=loop_delay, loop_jitter_fs=jitter
        )
        try:
            expected = reference_sta(cfg, *edges)
        except (ConfigError, BiasRangeError, ValueError, InfeasibleFrequencyError) as exc:
            with pytest.raises(type(exc)) as raised:
                sta(cfg, *edges)
            assert type(raised.value) is type(exc) and str(raised.value) == str(exc)
            return
        report = sta(cfg, *edges)
        want_loop, want_rows, want_windows = expected
        assert report.loop_delay_fs == want_loop
        assert [(r.constraint, r.cell, r.slack_fs) for r in report.slacks] == want_rows
        assert [(w.node, w.earliest_fs, w.latest_fs) for w in report.windows] == want_windows
        assert report.all_met == all(slack >= 0 for _, _, slack in want_rows)
        worst = report.worst()
        assert (worst.constraint, worst.cell, worst.slack_fs) == min(want_rows, key=lambda row: (row[2], row[0]))
        lo, hi = (edge if edge is not None else cfg.bias for edge in edges)
        assert (report.frequency_hz, report.bias_lo, report.bias_hi) == (hz, lo, hi)
        assert sta_to_text(report) == reference_text(cfg, lo, hi, want_loop, want_rows, want_windows)


def reference_max_frequency(cfg: SimConfig, step_hz: int) -> int:
    """The downward grid scan, one sta call per point, with the scan's messages written out as f-strings."""
    points = cfg.search_ceiling_hz // step_hz
    if not points:
        raise ConfigError("search_ceiling", f"{cfg.search_ceiling_hz} Hz is below the {step_hz} Hz scan step")
    if points > timing.MAX_SCAN_POINTS:
        grid = f"{points} points on the {step_hz} Hz scan grid (at most {timing.MAX_SCAN_POINTS})"
        raise ConfigError("search_ceiling", f"{cfg.search_ceiling_hz} Hz puts {grid}")
    for freq in range(points * step_hz, 0, -step_hz):
        try:
            report = sta(cfg._replace(frequency_hz=freq))
        except InfeasibleFrequencyError:
            continue
        if all(slack >= 0 for slack in report.slack_fs):
            return freq
    raise InfeasibleFrequencyError(f"no feasible frequency found at or below {points * step_hz} Hz")


class TestMaxFrequencyMatchesReference:
    """max_frequency against :func:`reference_max_frequency` on drawn cells,
    phases, header, guard, loop delay, jitter, ceiling and step: the same
    frequency, or the same error type and text."""

    @settings(max_examples=80, deadline=None)
    @given(
        overrides=st.just({}) | _drawn_overrides,
        phases=st.tuples(st.lists(st.integers(0, 99), min_size=2, max_size=2, unique=True).map(sorted), st.integers(0, 99))
        .map(lambda p: tuple(Fraction(k, 100) for k in (*p[0], p[1]))),
        header=st.integers(1, 3),
        guard=st.integers(0, 8000),
        loop_delay=st.none() | st.integers(1, 200_000),
        jitter=st.lists(st.integers(-8000, 8000), max_size=4),
        # a ceiling that is itself often feasible, up to 2,000 points on the default grid, or one past the scan cap
        ceiling=st.integers(1, 200 * GHZ) | st.integers(1, 2000 * GHZ) | st.just((timing.MAX_SCAN_POINTS + 1) * GHZ),
        step=st.sampled_from([GHZ, 7 * GHZ, 50 * GHZ, 999_999_937]),
    )
    @example(overrides={}, phases=(Fraction(1, 5), Fraction(1, 2), Fraction(1, 2)), header=1, guard=2000, loop_delay=None,
             jitter=[], ceiling=10**12, step=GHZ)
    def test_same_frequency_or_same_error(self, overrides, phases, header, guard, loop_delay, jitter, ceiling, step):
        phase_read, phase_write, phase_data = phases
        cfg = SimConfig(
            frequency_hz=100 * GHZ, num_addresses=3, header_intervals=header, phase_read=phase_read,
            phase_write=phase_write, phase_data=phase_data, retiming_guard_fs=guard, loop_delay_fs=loop_delay,
            loop_jitter_fs=jitter, cell_overrides=overrides, search_ceiling_hz=ceiling,
        )
        try:
            expected = reference_max_frequency(cfg, step)
        except (ConfigError, InfeasibleFrequencyError) as exc:
            with pytest.raises(type(exc)) as raised:
                max_frequency(cfg, step)
            assert type(raised.value) is type(exc) and str(raised.value) == str(exc)
            return
        assert max_frequency(cfg, step) == expected


class TestCaches:
    def test_caches_stay_bounded_over_many_frequencies(self, cfg100):
        suite = (scenario_write_read(1, 1),)
        for ghz in range(20, 220):
            cfg = cfg100.with_frequency(ghz * GHZ)
            sta(cfg)
            bias_margin(cfg, suite, max_pct=1)
        for cache in (memory._compile, memory._controller_wiring, cells._cell_set, timing._window_cells, engine._pin,
                      engine._kernel, memory.read_window_offset, timing._step_bias):
            info = cache.cache_info()
            assert 0 < info.currsize <= info.maxsize

    def test_a_sweep_walks_the_wiring_once_per_cell_set_and_loop_shape(self, cfg100, monkeypatch):
        # each further frequency retaps the checked wiring: its routes are the first netlist's
        walked, walk = [], engine.Netlist.__dict__["_wiring"].func
        wiring = cached_property(lambda net: walked.append(net) or walk(net))
        wiring.__set_name__(engine.Netlist, "_wiring")
        memory._compile.cache_clear()
        memory._controller_wiring.cache_clear()
        freqs = [20 * GHZ, 50 * GHZ, 75 * GHZ, 100 * GHZ]
        cfgs = (cfg100, cfg100._replace(loop_jitter_fs=(100, -100)), cfg100._replace(cell_overrides={"merger": {"prop_delay": 1000}}))
        with monkeypatch.context() as patched:
            patched.setattr(engine.Netlist, "_wiring", wiring)
            for cfg in cfgs:
                margin_sweep(cfg, freqs)
            nets = [build_controller(cfg.with_frequency(freq)) for cfg in cfgs for freq in freqs]
        assert len(walked) == 3 and len({id(net._wiring) for net in nets}) == 3
        assert len({net.connections for net in nets}) == 12

    def test_netlists_with_equal_cells_share_their_pins(self, cfg100):
        # a sweep's netlists differ only in frequency: each bias ratio is pinned once for all of them
        engine._pin.cache_clear()
        margin_sweep(cfg100, [20 * GHZ, 50 * GHZ, 75 * GHZ, 100 * GHZ])
        info = engine._pin.cache_info()
        assert info.misses == info.currsize and info.hits > info.misses
        nets = [build_controller(cfg100.with_frequency(ghz * GHZ)) for ghz in (20, 100)]
        assert nets[0] != nets[1] and nets[0].at_bias(cfg100.bias) is nets[1].at_bias(cfg100.bias)

    def test_a_margin_sweep_compiles_one_kernel(self, cfg100):
        # netlists that differ only in frequency share a wiring shape, and no
        # default cell reaches a zero delay, so every run takes the folded routes
        memory._compile.cache_clear()
        engine._kernel.cache_clear()
        margin_sweep(cfg100, [20 * GHZ, 50 * GHZ, 75 * GHZ, 100 * GHZ])
        info = engine._kernel.cache_info()
        assert (info.misses, info.currsize) == (1, 1)

    def test_sweep_is_the_same_on_warm_and_cleared_caches(self, cfg100):
        freqs = [50 * GHZ, 100 * GHZ, 500 * GHZ]

        def render() -> str:
            return margins_to_csv(margin_sweep(cfg100, freqs)) + sta_to_text(sta(cfg100, "0.87", "1.13"))

        warm = render()
        assert render() == warm
        for cache in (memory._compile, cells._cell_set, timing._window_cells, memory.read_window_offset, timing._step_bias):
            cache.cache_clear()
        assert render() == warm

    def test_a_sweep_builds_each_bias_step_once(self, cfg100):
        # every frequency's scan takes its steps from one cache: a step is built at its first use
        timing._step_bias.cache_clear()
        reports = margin_sweep(cfg100, [20 * GHZ, 50 * GHZ, 75 * GHZ, 100 * GHZ])
        steps = {0}  # each scan's steps: to its bound, and one past it where a limiter stopped it
        for r in reports:
            steps |= {-p for p in range(1, r.lower_pct + 1 + (r.lower_limiter is not None))}
            steps |= set(range(1, r.upper_pct + 1 + (r.upper_limiter is not None)))
        info = timing._step_bias.cache_info()
        assert info.misses == info.currsize == len(steps) and info.hits > info.misses


class TestOverridesKey:
    """The cell overrides are frozen once per config, and sta's window cache
    keys on that frozen value and the window's ints."""

    def test_equal_overrides_in_distinct_objects_share_one_window_entry(self):
        timing._window_cells.cache_clear()
        configs = [
            SimConfig(frequency_hz=ghz * GHZ, num_addresses=3, cell_overrides={"merger": {"prop_delay": 1000}})
            for ghz in (50, 100)
        ]
        assert configs[0].cell_overrides is not configs[1].cell_overrides
        reports = [sta(cfg, "0.9", Fraction(11, 10)) for cfg in configs]
        info = timing._window_cells.cache_info()
        assert (info.currsize, info.misses, info.hits) == (1, 1, 1)
        assert [r.frequency_hz for r in reports] == [50 * GHZ, 100 * GHZ]

    def test_with_frequency_reuses_the_frozen_key(self, monkeypatch):
        cfg = SimConfig(frequency_hz=100 * GHZ, num_addresses=3, cell_overrides={"read_dro2r": {"setup": 6000}})
        expected, rating = sta(cfg.with_frequency(90 * GHZ)), max_frequency(cfg)

        def refuse(value):
            raise AssertionError("overrides frozen again")

        monkeypatch.setattr(cells, "_freeze", refuse)
        monkeypatch.setattr(core, "_freeze", refuse)
        moved = cfg.with_frequency(90 * GHZ)
        assert moved.frozen_overrides is cfg.frozen_overrides
        assert sta(moved) == expected
        assert max_frequency(cfg) == rating

    def test_overrides_cannot_change_under_their_key(self):
        curve = [[Fraction(r), Fraction(m)] for r, m in (("0.76", "1.39"), ("1", "1"), ("1.24", "0.59"))]
        given = {"read_dro2r": {"setup": 6000, "bias_curve": curve}}
        cfg = SimConfig(frequency_hz=100 * GHZ, num_addresses=3, cell_overrides=given)
        key, report = cfg.frozen_overrides, sta(cfg)
        with pytest.raises(TypeError):
            cfg.cell_overrides["merger"] = {"prop_delay": 1}
        with pytest.raises(TypeError):
            cfg.cell_overrides["read_dro2r"]["setup"] = 1
        with pytest.raises(TypeError):
            cfg.cell_overrides["read_dro2r"]["bias_curve"][0] = (Fraction(1), Fraction(1))
        # the config holds a copy: changing the mapping it was made from changes neither
        given["read_dro2r"]["setup"] = 1
        curve[0][1] = Fraction(2)
        assert cfg.cell_overrides["read_dro2r"]["setup"] == 6000
        assert cfg.frozen_overrides == key == cells._freeze(cfg.cell_overrides)
        assert sta(cfg) == report
        # a config with other overrides gets its own key
        changed = cfg._replace(cell_overrides={"read_dro2r": {"setup": 5000}})
        assert changed.frozen_overrides == (("read_dro2r", (("setup", 5000),)),)
        assert sta(changed).slacks != report.slacks


class TestMarginSweep:
    def test_sweep_sorts_and_marks_infeasible_points(self, cfg100):
        reports = margin_sweep(cfg100, [500 * GHZ, 200 * GHZ])
        assert reports == (
            MarginReport(200 * GHZ, None, None, "SETUP", "SETUP"),
            MarginReport(500 * GHZ, None, None, "INFEASIBLE", "INFEASIBLE"),
        )

    def test_csv_rendering(self, cfg100):
        reports = margin_sweep(cfg100, [500 * GHZ, 200 * GHZ, 100 * GHZ])
        assert margins_to_csv(reports) == (
            "frequency_hz,lower_pct,upper_pct,lower_limiter,upper_limiter\n"
            "100000000000,13,13,HOLD,SETUP\n"
            "200000000000,,,SETUP,SETUP\n"
            "500000000000,,,INFEASIBLE,INFEASIBLE\n"
        )

    def test_text_rendering(self, cfg100):
        reports = margin_sweep(cfg100, [500 * GHZ, 200 * GHZ])
        assert margins_to_text(reports) == (
            "freq_GHz  lower  upper  limiters\n"
            "     200     --     --  SETUP / SETUP\n"
            "     500     --     --  infeasible\n"
        )
