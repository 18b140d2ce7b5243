"""Characterization, worst-case slacks, frequency search, bias margins."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fluxloop import (
    BiasRangeError,
    ConfigError,
    InfeasibleFrequencyError,
    MarginReport,
    SimConfig,
    bias_margin,
    characterize_cell,
    margin_sweep,
    max_frequency,
    sta,
)
from fluxloop import cells, core, memory, timing
from fluxloop.cells import default_cell_params, delay_at_bias
from fluxloop.core import BiasPoint, exact_ratio, format_ratio, interval_duration, round_half_up
from fluxloop.engine import RunawayQueueError
from fluxloop.memory import build_controller, default_margin_suite, scenario_write_read, source_path_delays
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
    "recirc_dro2r": {"prop_delay": 6000, "prop_delay_out1": 6000, "setup": 6000, "hold": 2000},
    "merger": {"prop_delay": 3000, "min_separation": 4000},
    "fanout": {"prop_delay": 1000},
    "read_dro2r": {"prop_delay": 6000, "prop_delay_out1": 6000, "setup": 14000, "hold": 2000},
}

ZEROED = {
    name: {"prop_delay": 0, "setup": 0, "hold": 0}
    for name in ("write_dro", "recirc_dro2r", "merger", "fanout", "read_dro2r")
}


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
            assert measured == delay_at_bias(cells[name].delay_model, BiasPoint(ratio))

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

    def test_nominal_violation_reports_zero_margin(self, cfg100):
        # a loop 25 ps short lands bits against the re-timing clock edge
        broken = cfg100._replace(loop_delay_fs=5000)
        assert bias_margin(broken) == MarginReport(100 * GHZ, 0, 0, "SETUP", "SETUP")

    def test_clean_aliasing_is_caught_by_the_read_oracle(self, cfg100):
        # a loop exactly one interval short re-times cleanly into the wrong
        # slot: no violation fires, only the decoded reads betray it
        aliased = cfg100._replace(loop_delay_fs=20000)
        assert bias_margin(aliased) == MarginReport(100 * GHZ, 0, 0, "WRONG_READ", "WRONG_READ")

    def test_margin_cap(self, cfg100):
        report = bias_margin(SimConfig(frequency_hz=20 * GHZ, num_addresses=3), max_pct=10)
        assert report == MarginReport(20 * GHZ, 10, 10, None, None)

    def test_empty_scenario_list_rejected(self, cfg100):
        with pytest.raises(ValueError, match="at least one scenario"):
            bias_margin(cfg100, ())

    def test_every_scenario_is_sized_before_any_stimulus_is_built(self, cfg100, monkeypatch):
        # the default suite's stimuli are 19, 25 and 27 pulses: only the last is over
        built = []
        stimulus_for = memory.stimulus_for

        def spy(program, cfg):
            built.append(program)
            return stimulus_for(program, cfg)

        monkeypatch.setattr(memory, "stimulus_for", spy)
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


#: Per-cell overrides of the timing figures that sta and the simulator share.
_drawn_overrides = st.dictionaries(
    st.sampled_from(("write_dro", "recirc_dro2r", "merger", "fanout", "read_dro2r")),
    st.dictionaries(st.sampled_from(("prop_delay", "setup", "hold")), st.integers(0, 8000), min_size=1),
    min_size=1,
    max_size=3,
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


def reference_sta(cfg: SimConfig, bias_lo=None, bias_hi=None) -> tuple:
    """sta written out plainly: every cell pinned and every instant rounded
    through Fractions on each call.  Returns (loop delay, rows, windows) or
    raises what sta must raise, in the same order."""
    lo = exact_ratio(bias_lo) if bias_lo is not None else cfg.bias.ratio
    hi = exact_ratio(bias_hi) if bias_hi is not None else cfg.bias.ratio
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
    at_lo = {name: p.at_bias(BiasPoint(lo)) for name, p in cells.items()}
    at_hi = {name: p.at_bias(BiasPoint(hi)) for name, p in cells.items()}

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
    wd, rc, rd = cells["write_dro"], cells["recirc_dro2r"], cells["read_dro2r"]
    rows = [
        ("write_setup", "write_dro", header + ph_write - ph_data - wd.setup_fs),
        ("write_hold", "write_dro", interval + ph_data - ph_write - wd.hold_fs),
        ("recirc_setup", "recirc_dro2r", trip - loop_delay - path_max - rc.setup_fs),
        ("recirc_hold", "recirc_dro2r", path_min + loop_delay - (trip - interval) - rc.hold_fs),
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
        ("recirc_data_next_trip", path_min + loop_delay - trip, path_max + loop_delay - trip),
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
    )
    @example(
        overrides={"merger": {"prop_delay": 2000}}, hz=100 * GHZ, edges=(Fraction("0.87"), Fraction("1.13")), loop_delay=None
    )
    @example(overrides={"read_dro2r": {"setup": 9000}}, hz=1000 * GHZ, edges=(None, None), loop_delay=None)
    @example(overrides={"fanout": {"hold": 10}}, hz=100 * GHZ, edges=(Fraction("1.1"), Fraction("0.9")), loop_delay=5)
    @example(overrides={"fanout": {"hold": 10}}, hz=100 * GHZ, edges=(Fraction("0.5"), Fraction("1.13")), loop_delay=None)
    @example(overrides={"merger": {"prop_delay": 1}}, hz=100 * GHZ, edges=(None, None), loop_delay=None)
    # read_setup and read_hold tie at -50 fs: worst() breaks the tie by name
    @example(overrides={"fanout": {"hold": 0}}, hz=100 * GHZ, edges=(Fraction("0.86"), Fraction("1.14")), loop_delay=None)
    def test_same_report_or_same_error(self, overrides, hz, edges, loop_delay):
        cfg = SimConfig(frequency_hz=hz, num_addresses=3, cell_overrides=overrides, loop_delay_fs=loop_delay)
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
        lo, hi = (edge if edge is not None else cfg.bias.ratio for edge in edges)
        assert (report.frequency_hz, report.bias_lo, report.bias_hi) == (hz, lo, hi)
        assert sta_to_text(report) == reference_text(cfg, lo, hi, want_loop, want_rows, want_windows)


class TestCaches:
    def test_caches_stay_bounded_over_many_frequencies(self, cfg100):
        suite = (scenario_write_read(1, 1),)
        for ghz in range(20, 220):
            cfg = cfg100.with_frequency(ghz * GHZ)
            sta(cfg)
            bias_margin(cfg, suite, max_pct=1)
        caches = (memory._compile, cells._cell_set, timing._window_cells, build_controller(cfg)._pinned)
        for cache in caches:
            info = cache.cache_info()
            assert 0 < info.currsize <= info.maxsize

    def test_sweep_is_the_same_on_warm_and_cleared_caches(self, cfg100):
        freqs = [50 * GHZ, 100 * GHZ, 500 * GHZ]

        def render() -> str:
            return margins_to_csv(margin_sweep(cfg100, freqs)) + sta_to_text(sta(cfg100, "0.87", "1.13"))

        warm = render()
        assert render() == warm
        for cache in (memory._compile, cells._cell_set, timing._window_cells):
            cache.cache_clear()
        assert render() == warm


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
            MarginReport(200 * GHZ, 0, 0, "SETUP", "SETUP"),
            MarginReport(500 * GHZ, None, None, "INFEASIBLE", "INFEASIBLE"),
        )

    def test_csv_rendering(self, cfg100):
        reports = margin_sweep(cfg100, [500 * GHZ, 200 * GHZ, 100 * GHZ])
        assert margins_to_csv(reports) == (
            "frequency_hz,lower_pct,upper_pct,lower_limiter,upper_limiter\n"
            "100000000000,13,13,HOLD,SETUP\n"
            "200000000000,0,0,SETUP,SETUP\n"
            "500000000000,,,INFEASIBLE,INFEASIBLE\n"
        )

    def test_text_rendering(self, cfg100):
        reports = margin_sweep(cfg100, [500 * GHZ, 200 * GHZ])
        assert margins_to_text(reports) == (
            "freq_GHz  lower  upper  limiters\n"
            "     200    -0%    +0%  SETUP / SETUP\n"
            "     500     --     --  infeasible\n"
        )
