"""Timing analysis: cell characterization, worst-case slacks, bias margins.

Three complementary views of the same controller:

* :func:`characterize_cell` measures a single cell's clock-to-output delay
  by simulating it in isolation across a bias sweep;
* :func:`sta` propagates best/worst-case delay intervals over a bias window
  through every clocked-cell constraint and reports slacks — no simulation;
* :func:`bias_margin` brackets the operating window empirically, stepping
  the simulated bias away from nominal until a scenario suite stops
  producing oracle-correct, violation-free runs.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Iterable, Sequence
from fractions import Fraction
from functools import lru_cache

from .cells import INPUT_PORTS, OUTPUT_PORTS, BiasRangeError, _cell_set, default_cell_params
from .core import ConfigError, InfeasibleFrequencyError, SimConfig, exact_ratio, format_ratio, interval_duration
from .engine import Connection, Netlist, run_until, schedule
from .memory import (
    BUDGET_MISS, MemoryProgram, MemoryResult, _check_stimulus_size, _phase_instants, _retiming_budget,
    default_margin_suite, oracle, prepare_program, source_path_delays,
    run_program,  # unused here; perfbench's tracer and self-test expect timing.run_program
)


# --- characterization -------------------------------------------------------

def characterize_cell(
    cell: str,
    cfg: SimConfig,
    ratios: Iterable[Fraction | float | str],
) -> tuple[tuple[Fraction, int], ...]:
    """Measure one cell's input-to-output delay at each bias ratio.

    The cell is simulated alone: storage cells get a data pulse followed by
    a comfortably late clock, pass-through cells just one pulse.  The
    returned delays are simulator ground truth and must agree with the
    cell's delay model at every in-range point.
    """
    params_by_name = default_cell_params(cfg.cell_overrides)
    if cell not in params_by_name:
        raise KeyError(f"unknown cell {cell!r}")
    params = params_by_name[cell]

    # drive the data port, if any, then a comfortably late first clock (or
    # input); watch the first output
    inputs = INPUT_PORTS[params.kind]
    clock_at = params.setup_fs + 10_000
    wiring = {"cin_clock": next(port for port in inputs if port != "data")}
    stimulus = [(clock_at, "cin_clock")]
    if "data" in inputs:
        wiring["cin_data"] = "data"
        stimulus.insert(0, (0, "cin_data"))
    connections = [Connection(line, f"{cell}.{port}") for line, port in wiring.items()]
    connections.append(Connection(f"{cell}.{OUTPUT_PORTS[params.kind][0]}", "cout"))
    net = Netlist(
        cells={cell: params},
        connections=tuple(connections),
        external_inputs=frozenset(wiring),
        observed=("cout",),
    )
    prepared = schedule(net, stimulus)

    rng = params.operating_range()
    rows = []
    for raw in ratios:
        ratio = exact_ratio(raw)
        if rng is not None and not (rng[0] <= ratio <= rng[1]):
            raise BiasRangeError(
                f"bias {format_ratio(ratio)} outside {cell} operating range "
                f"[{format_ratio(rng[0])}, {format_ratio(rng[1])}]"
            )
        trace = run_until(prepared, clock_at + params.at_bias(ratio).prop_delay_fs + 10_000, ratio)
        out = [key // len(trace.lines) for key in trace.keys]  # cout is the one line observed
        if len(out) != 1 or trace.failed:
            raise RuntimeError(f"characterization run for {cell} did not produce a clean pulse")
        rows.append((ratio, out[0] - clock_at))
    return tuple(rows)


def characterization_to_csv(rows: Sequence[tuple[Fraction, int]]) -> str:
    lines = ["bias_ratio,delay_fs"]
    lines += [f"{format_ratio(ratio)},{delay}" for ratio, delay in rows]
    return "\n".join(lines) + "\n"


# --- static timing analysis -------------------------------------------------

class SlackRow(namedtuple("SlackRow", "constraint cell slack_fs")):
    __slots__ = ()


class ArrivalWindow(namedtuple("ArrivalWindow", "node earliest_fs latest_fs")):
    """Earliest/latest pulse arrival at a node, relative to the interval's
    write-phase instant (recirc_data_next_trip: to the next trip's)."""

    __slots__ = ()


#: (constraint, cell) of each slack in a report, in report order.
_SLACK_ROWS = (
    ("write_setup", "write_dro"), ("write_hold", "write_dro"), ("recirc_setup", "recirc_dro2r"),
    ("recirc_hold", "recirc_dro2r"), ("recirc_period", "recirc_dro2r"), ("read_setup", "read_dro2r"),
    ("read_hold", "read_dro2r"), ("read_period", "read_dro2r"), ("loop_race", "read_dro2r"),
)
_WINDOW_NODES = ("merger_in0", "merger_in1", "loop_data_in", "read_data", "recirc_data_next_trip")


class StaReport(namedtuple("StaReport", "frequency_hz bias_lo bias_hi loop_delay_fs slack_fs window_fs")):
    """Slacks in ``_SLACK_ROWS`` order and (earliest, latest) arrival pairs in
    ``_WINDOW_NODES`` order, as plain ints; :attr:`slacks`/:attr:`windows`
    build the named rows when read.  A tuple: immutable, equal by value."""

    __slots__ = ()

    @property
    def slacks(self) -> tuple[SlackRow, ...]:
        return tuple(SlackRow(name, cell, slack) for (name, cell), slack in zip(_SLACK_ROWS, self.slack_fs))

    @property
    def windows(self) -> tuple[ArrivalWindow, ...]:
        return tuple(ArrivalWindow(node, *pair) for node, pair in zip(_WINDOW_NODES, self.window_fs))

    @property
    def all_met(self) -> bool:
        return min(self.slack_fs) >= 0

    def worst(self) -> SlackRow:
        return min(self.slacks, key=lambda row: (row.slack_fs, row.constraint))


@lru_cache(maxsize=64)
def _window_cells(frozen_overrides: tuple, lo_num: int, lo_den: int, hi_num: int, hi_den: int) -> tuple:
    """The frequency-free part of sta over a checked window [lo_num/lo_den, hi_num/hi_den], keyed on
    ints so a hit hashes no Fraction: (path_min, path_max, re-timing budget before the guard, the
    (setup, hold, prop) figures of write_dro, recirc_dro2r and read_dro2r, the fixed arrival windows)."""
    lo, hi = Fraction(lo_num, lo_den), Fraction(hi_num, hi_den)
    if lo > hi:
        raise ValueError("bias_lo must not exceed bias_hi")
    cells = _cell_set(frozen_overrides)
    for name, params in cells.items():
        rng = params.operating_range()
        if rng is not None and not (rng[0] <= lo and hi <= rng[1]):
            raise BiasRangeError(
                f"bias window [{format_ratio(lo)}, {format_ratio(hi)}] exceeds {name} "
                f"operating range [{format_ratio(rng[0])}, {format_ratio(rng[1])}]"
            )
    if lo <= 0:
        raise ValueError("bias ratio must be positive")
    at_lo, at_hi = ({name: p.at_bias(edge) for name, p in cells.items()} for edge in (lo, hi))
    # Merged-path extremes over both sources (fresh write vs recirculation).
    path_min, path_max = min(source_path_delays(at_hi)), max(source_path_delays(at_lo))
    windows = (
        (at_hi["write_dro"].prop_delay_fs, at_lo["write_dro"].prop_delay_fs),
        (at_hi["recirc_dro2r"].prop_delay_fs, at_lo["recirc_dro2r"].prop_delay_fs),
        (path_min, path_max),
        (path_min + at_hi["read_dro2r"].prop_delay_fs, path_max + at_lo["read_dro2r"].prop_delay_fs),
    )
    figures = ((c.setup_fs, c.hold_fs, c.prop_delay_fs) for c in map(cells.get, ("write_dro", "recirc_dro2r", "read_dro2r")))
    return (path_min, path_max, _retiming_budget(cells), *figures, windows)


def sta(
    cfg: SimConfig,
    bias_lo: Fraction | float | str | None = None,
    bias_hi: Fraction | float | str | None = None,
) -> StaReport:
    """Worst-case slack for every clocked-cell constraint in the controller.

    Delays are evaluated as intervals over [bias_lo, bias_hi] (all cells
    share the bias rail, and delay falls as bias rises, so the extremes
    land at the window edges).  Every row's slack must be non-negative for
    the controller to meet timing across the window.

    The two ``*_period`` rows are throughput ratings — a storage cell's
    clock interval must cover its setup plus clock-to-out figure — and are
    checked at nominal bias regardless of the window: they rate the design
    point's frequency, and unlike the setup/hold races they have no
    counterpart event in the pulse-level model that would scale with bias.

    Trip t's loop runs ``loop_jitter_fs[t]`` longer: ``recirc_setup`` loses
    ``max(0, *loop_jitter_fs)``, ``recirc_hold`` gains ``min(0, *loop_jitter_fs)``,
    and the recirc_data_next_trip window widens by both.
    """
    lo = exact_ratio(bias_lo) if bias_lo is not None else cfg.bias
    hi = exact_ratio(bias_hi) if bias_hi is not None else cfg.bias
    (path_min, path_max, budget, (wd_setup, wd_hold, _), (rc_setup, rc_hold, rc_prop), (rd_setup, rd_hold, rd_prop),
     windows) = _window_cells(cfg.frozen_overrides, *(edge := lo.as_integer_ratio()),
                              *(edge if hi is lo else hi.as_integer_ratio()))  # both the config bias: converted once
    interval = interval_duration(cfg)
    header = cfg.header_intervals * interval
    trip = header + cfg.num_addresses * interval
    if (loop_delay := cfg.loop_delay_fs) is None:
        if (budget := budget + cfg.retiming_guard_fs) >= trip:
            raise InfeasibleFrequencyError(BUDGET_MISS, budget, trip, cfg.frequency_hz)  # as required_loop_delay
        loop_delay = trip - budget
    ph_read, ph_write, ph_data = _phase_instants(cfg, interval)
    read_gap = interval + ph_read - ph_write - path_max  # the loop race
    late = early = loop_delay  # the longest and shortest loop over the trips (a trip past the jitter list adds 0)
    if cfg.loop_jitter_fs:
        late, early = loop_delay + max(0, *cfg.loop_jitter_fs), loop_delay + min(0, *cfg.loop_jitter_fs)
    slack_fs = (  # in _SLACK_ROWS order
        header + ph_write - ph_data - wd_setup,
        interval + ph_data - ph_write - wd_hold,
        trip - late - path_max - rc_setup,
        path_min + early - (trip - interval) - rc_hold,
        interval - rc_setup - rc_prop,
        ph_write + path_min - ph_read - rd_setup,
        read_gap - rd_hold,
        interval - rd_setup - rd_prop,
        read_gap,
    )
    next_trip = (path_min + early - trip, path_max + late - trip)  # recirc_data_next_trip
    return tuple.__new__(StaReport, (cfg.frequency_hz, lo, hi, loop_delay, slack_fs, (*windows, next_trip)))


def sta_to_text(report: StaReport) -> str:
    lines = [
        f"frequency {report.frequency_hz / 1e9:g} GHz, "
        f"bias window [{format_ratio(report.bias_lo)}, {format_ratio(report.bias_hi)}], "
        f"loop delay {report.loop_delay_fs} fs",
        "",
        f"{'constraint':<14} {'cell':<13} {'slack_fs':>9}",
    ]
    lines += [f"{row.constraint:<14} {row.cell:<13} {row.slack_fs:>9}" for row in report.slacks]
    lines += ["", "arrival windows (fs after the interval write instant):"]
    lines += [f"  {win.node:<22} [{win.earliest_fs}, {win.latest_fs}]" for win in report.windows]
    status = "met" if report.all_met else f"VIOLATED ({report.worst().constraint})"
    lines += ["", f"timing {status}"]
    return "\n".join(lines) + "\n"


class JitterWindow(namedtuple("JitterWindow", "lo_fs hi_fs detect_below detect_above")):
    """Tolerated per-trip loop-delay error, and where excess is detectable.

    Within [lo_fs, hi_fs] the re-timing clock fully absorbs the error:
    loop_data_in times are unchanged.  In the adjacent detectable bands a
    SETUP or HOLD violation is guaranteed at the re-timing cell, whichever
    source (fresh write or recirculation) the bit came from.  Beyond those
    bands the bit aliases into a neighboring interval slot, which no local
    timing check can see — inherent to any delay-line store.  A band whose
    first edge exceeds its last is empty: the two sources' arrivals spread
    across the whole setup + hold band.
    """

    __slots__ = ()


def jitter_tolerance(cfg: SimConfig) -> JitterWindow:
    """The re-timing tolerance window at nominal bias, read off ``sta``'s recirculation rows.

    A loop error shifts the bit's arrival at ``recirc_dro2r``: the
    recirc_setup slack bounds a late shift, the recirc_hold slack an early
    one.  Both rows are taken at the extreme of the two sources' arrivals
    (loop_data_in's window), so both sources violate only once the shift
    passes the window by that spread, and until it passes the cell's
    setup + hold band, beyond which the bit reaches the neighboring clock.
    """
    report = sta(cfg._replace(loop_jitter_fs=()), 1, 1)  # the tolerance, not the verdict on cfg's own jitter
    setup_slack, hold_slack = report.slack_fs[2:4]  # recirc_setup, recirc_hold in _SLACK_ROWS order
    lo, hi = -hold_slack, setup_slack
    if not lo <= 0 <= hi:
        raise InfeasibleFrequencyError(
            "no re-timing slack at this frequency: with no jitter at all, recirc_setup or recirc_hold already fails"
        )
    earliest, latest = report.window_fs[2]  # loop_data_in in _WINDOW_NODES order
    spread = latest - earliest
    retimer = _cell_set(cfg.frozen_overrides)["recirc_dro2r"]
    band = retimer.setup_fs + retimer.hold_fs
    return JitterWindow(lo, hi, (lo - band + 1, lo - spread - 1), (hi + spread + 1, hi + band - 1))


#: Most grid points one ``max_frequency`` scan may visit (each is an sta call).
MAX_SCAN_POINTS = 10_000


def max_frequency(cfg: SimConfig, step_hz: int = 10**9) -> int:
    """Largest frequency on a step_hz grid whose slacks are all non-negative.

    Scans down from the search ceiling, one ``sta`` call per grid point (a
    miss formats no error text), so cell sets whose constraints never bind
    resolve to the ceiling.  A non-positive step is a ValueError; a ceiling
    that leaves no grid point, or more than ``MAX_SCAN_POINTS``, a config error.
    """
    if step_hz <= 0:
        raise ValueError(f"step_hz must be positive, got {step_hz}")
    points = cfg.search_ceiling_hz // step_hz
    if not points:
        raise ConfigError("search_ceiling", f"{cfg.search_ceiling_hz} Hz is below the {step_hz} Hz scan step")
    if points > MAX_SCAN_POINTS:
        grid = f"{points} points on the {step_hz} Hz scan grid (at most {MAX_SCAN_POINTS})"
        raise ConfigError("search_ceiling", f"{cfg.search_ceiling_hz} Hz puts {grid}")
    ceiling = points * step_hz
    for freq in range(ceiling, 0, -step_hz):
        try:
            if sta(cfg.with_frequency(freq)).all_met:
                return freq
        except InfeasibleFrequencyError:
            pass
    raise InfeasibleFrequencyError(f"no feasible frequency found at or below {ceiling} Hz")


# --- empirical bias margins -------------------------------------------------

class MarginReport(namedtuple("MarginReport", "frequency_hz lower_pct upper_pct lower_limiter upper_limiter")):
    """Empirical bias window around nominal, in whole percent.

    lower_pct/upper_pct are the last consecutive 1% steps in each direction
    where every scenario still reads back correctly with a clean trace.
    Limiters name the first failure past the bound: a violation kind, or
    WRONG_READ when decoding broke silently; None means the scan hit its
    cap without failing.  A frequency that fails at nominal bias has no
    window: None margins, with that failure as both limiters.  An
    infeasible frequency carries None margins and INFEASIBLE limiters.
    """

    __slots__ = ()


def _suite_failure(
    scenarios: Sequence[Callable[[Fraction], MemoryResult]],
    expected: Sequence[dict[tuple[int, int], int]],
    bias: Fraction,
) -> str | None:
    """First failure cause across the suite at this bias, else None.

    Violations win over silent wrong reads and are ranked by (time, cell,
    kind) across all scenarios, so the verdict does not depend on scenario
    order.
    """
    violations = []
    wrong = False
    for scenario, want in zip(scenarios, expected):
        result = scenario(bias)
        violations.extend(result.trace.violations)
        wrong = wrong or result.reads != want
    if violations:
        first = min(violations, key=lambda v: (v.time_fs, v.cell, v.kind.value))
        return first.kind.value
    return "WRONG_READ" if wrong else None


#: The bias a signed whole percent from nominal, built once for every scan (bounded: a default scan takes 101).
_step_bias = lru_cache(maxsize=128)(lambda pct: Fraction(100 + pct, 100))


def bias_margin(
    cfg: SimConfig,
    scenarios: Sequence[MemoryProgram] | None = None,
    max_pct: int = 50,
) -> MarginReport:
    """Bracket the bias window by stepping away from nominal in 1% moves.

    Each scenario is prepared (controller, stimulus, read slots) once; a
    bias step only runs the prepared scenarios.
    """
    if scenarios is None:
        scenarios = default_margin_suite(cfg)
    if not scenarios:
        raise ValueError("bias_margin needs at least one scenario")
    for p in scenarios:  # every scenario's size before its oracle or stimulus is built
        _check_stimulus_size(p, cfg)
    expected = [oracle(p, cfg.num_addresses) for p in scenarios]  # checks each program
    prepared = [prepare_program(p, cfg) for p in scenarios]

    nominal_failure = _suite_failure(prepared, expected, _step_bias(0))
    if nominal_failure is not None:
        return MarginReport(cfg.frequency_hz, None, None, nominal_failure, nominal_failure)

    def bound(sign: int) -> tuple[int, str | None]:
        for pct in range(1, max_pct + 1):
            cause = _suite_failure(prepared, expected, _step_bias(sign * pct))
            if cause is not None:
                return pct - 1, cause
        return max_pct, None

    (lower_pct, lower_limiter), (upper_pct, upper_limiter) = bound(-1), bound(1)
    return MarginReport(cfg.frequency_hz, lower_pct, upper_pct, lower_limiter, upper_limiter)


def margin_sweep(
    cfg: SimConfig,
    frequencies_hz: Iterable[int],
    scenarios: Sequence[MemoryProgram] | None = None,
) -> tuple[MarginReport, ...]:
    """bias_margin at each frequency; infeasible points are marked, not fatal."""
    reports = []
    for freq in sorted(set(frequencies_hz)):
        candidate = cfg.with_frequency(freq)
        try:
            reports.append(bias_margin(candidate, scenarios))
        except InfeasibleFrequencyError:
            reports.append(MarginReport(freq, None, None, "INFEASIBLE", "INFEASIBLE"))
    return tuple(reports)


def margins_to_csv(reports: Sequence[MarginReport]) -> str:
    lines = [",".join(MarginReport._fields)]
    lines += [",".join("" if value is None else str(value) for value in r) for r in reports]
    return "\n".join(lines) + "\n"


def margins_to_text(reports: Sequence[MarginReport]) -> str:
    lines = [f"{'freq_GHz':>8} {'lower':>6} {'upper':>6}  limiters"]
    for r in reports:
        lower, upper = ("--", "--") if r.lower_pct is None else (f"-{r.lower_pct}%", f"+{r.upper_pct}%")
        lims = "infeasible" if r.lower_limiter == "INFEASIBLE" else f"{r.lower_limiter or '-'} / {r.upper_limiter or '-'}"
        lines.append(f"{r.frequency_hz / 1e9:>8g} {lower:>6} {upper:>6}  {lims}")
    return "\n".join(lines) + "\n"
