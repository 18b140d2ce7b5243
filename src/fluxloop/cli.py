"""Command-line front end.

Five subcommands: ``simulate`` runs a program against a config and can
export the trace, ``sta`` prints worst-case slacks (optionally searching
for the maximum feasible frequency), ``margins`` sweeps empirical bias
margins over a frequency list, ``density`` prints storage-density tables,
and ``characterize`` sweeps one cell's delay over bias.

Exit codes classify failures for scripting: 2 config/usage trouble (a
malformed document or option, a run that exceeds ``max_events``, or any
other input the simulator refuses), 3 infeasible frequency, 4 a run that
completed but failed (violations or wrong reads; a ``margins`` row that
fails at nominal bias), 141 stdout closed early.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Iterator
from contextlib import contextmanager
from itertools import islice
from fractions import Fraction
from io import TextIOBase

from .cells import default_cell_params
from .core import (
    ConfigError,
    FluxloopError,
    InfeasibleFrequencyError,
    SimConfig,
    _bounded_ratio,
    format_ratio,
    parse_config,
    parse_frequency,
)
from .engine import EXPORT_CHUNK, RunawayQueueError, write_csv, write_vcd
from .memory import MemoryProgram, MemoryResult, oracle_reads, parse_program, run_program
from .timing import (
    _window_cells,
    characterization_to_csv,
    characterize_cell,
    bias_margin,
    margin_sweep,
    margins_to_csv,
    margins_to_text,
    max_frequency,
    sta,
    sta_to_text,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_RUN_FAILED = 4
#: What a shell reports for a process that SIGPIPE ended: stdout's reader closed early.
EXIT_BROKEN_PIPE = 141

#: Most bias points one ``characterize`` sweep may take (each is a simulation).
MAX_SWEEP_POINTS = 10_000
#: Most bytes a ``--config`` or ``--program`` document may hold: an endless one (``/dev/zero``) is refused, not read whole.
MAX_DOCUMENT_BYTES = 64 * 2**20


def _read(path: str, what: str) -> str:
    try:
        with open(path, "rb") as file:
            data = bytearray()  # read in chunks: a read of n bytes allocates n before it reads one
            while (room := MAX_DOCUMENT_BYTES + 1 - len(data)) and (chunk := file.read(min(room, 2**16))):
                data += chunk
        if len(data) > MAX_DOCUMENT_BYTES:
            raise ConfigError(what, f"{path} is larger than {MAX_DOCUMENT_BYTES} bytes")
        return data.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:  # a UnicodeDecodeError has no strerror
        raise ConfigError(what, f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from None


@contextmanager
def _open(path: str | None, what: str) -> Iterator[TextIOBase | None]:
    """The output file at ``path`` (None when not given), created or truncated
    as a shell redirection does and closed when the block ends.  A command
    opens it before its work, so an unwritable path is refused before the
    run, not after it.  An OSError in the block (a write, or the flush at
    close) is refused as a failed write to it, like the open."""
    if path is None:
        yield None
        return
    try:
        with open(path, "w") as file:
            yield file
    except OSError as exc:
        raise ConfigError(what, f"cannot write {path}: {exc.strerror or exc}") from None


def _ratio_option(raw: str | None, option: str) -> Fraction | None:
    """A positive ratio given on the command line (None when not given)."""
    if raw is None:
        return None
    try:
        if (ratio := _bounded_ratio(raw, option)) > 0:
            return ratio
    except (ValueError, ZeroDivisionError):  # malformed
        pass
    raise ConfigError(option, f"expected a positive ratio, got {raw!r}")


def _parse_freq_list(raw: str) -> list[int]:
    freqs = [parse_frequency(item.strip(), "freqs") for item in raw.split(",") if item.strip()]
    if not freqs:
        raise ConfigError("freqs", "expected a comma-separated frequency list")
    if max(freqs) > sys.float_info.max:  # the reports print each in GHz, a float
        raise ConfigError("freqs", "frequency too large for a float")
    return freqs


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = parse_config(_read(args.config, "config"))
    program = parse_program(_read(args.program, "program"))
    if args.bias is not None:
        cfg = cfg.with_bias(_ratio_option(args.bias, "--bias"))
    suffix = os.path.splitext(args.trace or "")[1].lower()
    if args.trace is not None and suffix not in (".csv", ".vcd"):
        raise ConfigError("trace", f"unsupported trace format {suffix!r} (use .csv or .vcd)")

    with _open(args.trace, "trace") as trace_file:
        result = run_program(program, cfg)
        if trace_file is not None:
            (write_csv if suffix == ".csv" else write_vcd)(result.trace, trace_file)

    ok = _report(cfg, program, result)
    print(f"result: {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_RUN_FAILED


def _report(cfg: SimConfig, program: MemoryProgram, result: MemoryResult) -> bool:
    """Write ``simulate``'s report but its ``result:`` line to stdout, one
    line per read (noting a read the oracle disagrees with) and one per
    violation, ``EXPORT_CHUNK`` lines per write; whether the run passed."""
    sys.stdout.write(f"frequency {cfg.frequency_hz / 1e9:g} GHz, {cfg.num_addresses} addresses, bias {format_ratio(cfg.bias)}\n")
    mismatches = 0

    def read_lines() -> Iterator[str]:
        nonlocal mismatches
        head_trip, tails = None, {}  # a read line is its trip's head plus its address's tail, cached at its first read
        for trip, addr, expected in oracle_reads(program, cfg.num_addresses):
            bit = result.reads[trip, addr]
            if bit == expected:
                if trip != head_trip:
                    head_trip, head = trip, f"trip {trip}: addr "
                yield head + (tails.get(addr) or tails.setdefault(addr, (f"{addr} -> 0\n", f"{addr} -> 1\n")))[bit]
            else:
                mismatches += 1
                yield f"trip {trip}: addr {addr} -> {bit}  (expected {expected})\n"

    violation_lines = (f"violation: {v.kind.value} {v.cell} at {v.time_fs} fs: {v.detail}\n" for v in result.trace.violations)
    for lines in (read_lines(), violation_lines):
        while chunk := "".join(islice(lines, EXPORT_CHUNK)):
            sys.stdout.write(chunk)
    return result.passed and mismatches == 0


def _cmd_sta(args: argparse.Namespace) -> int:
    cfg = parse_config(_read(args.config, "config"))
    bias_lo, bias_hi = _ratio_option(args.bias_lo, "--bias-lo"), _ratio_option(args.bias_hi, "--bias-hi")
    lo = bias_lo if bias_lo is not None else cfg.bias
    hi = bias_hi if bias_hi is not None else cfg.bias
    if lo > hi:
        raise ConfigError(
            "--bias-lo" if bias_lo is not None else "--bias-hi",
            f"window low edge {format_ratio(lo)} exceeds its high edge {format_ratio(hi)} "
            "(an edge not given is the config bias)",
        )
    if args.find_max:
        # the scan rates the design at the config bias; the window only sets the report's,
        # so a window a cell cannot take is refused before the scan prints anything
        _window_cells(cfg.frozen_overrides, *lo.as_integer_ratio(), *hi.as_integer_ratio())
        freq = max_frequency(cfg)
        print(f"max feasible frequency: {freq / 1e9:g} GHz")
        cfg = cfg.with_frequency(freq)
    report = sta(cfg, lo, hi)
    sys.stdout.write(sta_to_text(report))
    return EXIT_OK if report.all_met else EXIT_RUN_FAILED


def _cmd_margins(args: argparse.Namespace) -> int:
    cfg = parse_config(_read(args.config, "config"))
    freqs = _parse_freq_list(args.freqs)
    with _open(args.out, "out") as out:
        if len(set(freqs)) == 1:  # one frequency, however often given: its infeasibility is an error
            reports = (bias_margin(cfg.with_frequency(freqs[0])),)
        else:
            reports = margin_sweep(cfg, freqs)
        if out is not None:
            out.write(margins_to_csv(reports))
    sys.stdout.write(margins_to_text(reports))
    # a row with no margin failed at nominal bias, unless a sweep marked its frequency infeasible
    return EXIT_RUN_FAILED if any(r.lower_pct is None and r.lower_limiter != "INFEASIBLE" for r in reports) else EXIT_OK


def _cmd_density(args: argparse.Namespace) -> int:
    from .density import (
        TABLE_FREQUENCIES_GHZ, build_report, report_to_csv, report_to_text, reproduce_published, resolve_preset, stacked_spec,
    )

    specs = None  # every preset
    if args.all:
        if args.layers is not None:
            raise ConfigError("layers", "--layers applies to a single --preset")
    else:
        try:
            spec = resolve_preset(args.preset)
        except KeyError as exc:
            raise ConfigError("preset", str(exc).strip("'\"")) from None
        if args.layers is not None:
            if args.layers < 1:
                raise ConfigError("layers", f"--layers must be at least 1, got {args.layers}")
            if args.layers > sys.float_info.max:  # the density is a float
                raise ConfigError("layers", "--layers too large for a float")
            spec = stacked_spec(spec.name, args.layers)
        specs = [spec]
    freqs = TABLE_FREQUENCIES_GHZ if args.freqs is None else [f / 1e9 for f in _parse_freq_list(args.freqs)]

    with _open(args.out, "out") as out:
        report = reproduce_published() if args.all and args.freqs is None else build_report(specs, freqs)
        rendered = report_to_csv(report) if args.format == "csv" else report_to_text(report)
        (out or sys.stdout).write(rendered)
    return EXIT_OK if report.all_ok else EXIT_RUN_FAILED


def _cmd_characterize(args: argparse.Namespace) -> int:
    cfg = parse_config(_read(args.config, "config"))
    try:
        params = default_cell_params(cfg.cell_overrides)[args.cell]
    except KeyError:
        raise ConfigError("cell", f"unknown cell {args.cell!r}") from None

    rng = params.operating_range()
    given_lo = _ratio_option(args.lo, "--lo")
    lo = given_lo or (rng[0] if rng else Fraction(1))
    hi = _ratio_option(args.hi, "--hi") or (rng[1] if rng else Fraction(1))
    step = _ratio_option(args.step, "--step")
    if lo > hi:
        raise ConfigError(
            "--lo" if given_lo is not None else "--hi",
            f"sweep start {format_ratio(lo)} exceeds its end {format_ratio(hi)} "
            "(an edge not given is the cell's operating-range edge)",
        )
    points = (hi - lo) // step + 1  # exact: the ratios are Fractions
    if points > MAX_SWEEP_POINTS:
        raise ConfigError("--step", f"sweep of {points} points exceeds the cap of {MAX_SWEEP_POINTS}")
    ratios = [lo + i * step for i in range(points)]

    with _open(args.out, "out") as out:
        rendered = characterization_to_csv(characterize_cell(args.cell, cfg, ratios))
        (out or sys.stdout).write(rendered)
    return EXIT_OK


class _PresetHelp(argparse.HelpFormatter):
    """``density``'s help, naming the presets in ``--preset``'s line: the names
    are read only when the help is printed, so no other command loads
    :mod:`fluxloop.density`."""

    def _get_help_string(self, action: argparse.Action) -> str | None:
        if action.dest != "preset":
            return action.help
        from .density import PRESETS

        return f"one of: {', '.join(PRESETS)}"


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """Given a command, the parser with its subparser alone, whose usage line (printed for an
    unrecognized argument) still names all five; given none, or any other word, the one with all five."""
    parser = argparse.ArgumentParser(
        prog="fluxloop",
        description="Pulse-level delay-line memory simulator and analysis toolkit.",
    )
    names = ("simulate", "sta", "margins", "density", "characterize")
    wanted, metavar = ((command,), "{%s}" % ",".join(names)) if command in names else (names, None)
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)

    if "simulate" in wanted:
        p = sub.add_parser("simulate", help="run a program and decode its reads")
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--program", required=True, help="JSON program (trips of writes/reads)")
        p.add_argument("--trace", help="write the trace to this .csv or .vcd file")
        p.add_argument("--bias", help="override the config bias ratio")
        p.set_defaults(func=_cmd_simulate)

    if "sta" in wanted:
        p = sub.add_parser("sta", help="static timing slacks over a bias window")
        p.add_argument("--config", required=True)
        p.add_argument("--bias-lo", help="low edge of the bias window (default: config bias)")
        p.add_argument("--bias-hi", help="high edge of the bias window")
        p.add_argument(
            "--find-max",
            action="store_true",
            help="first rate the design: the highest frequency on a 1 GHz grid whose slacks all meet at the config "
            "bias; --bias-lo/--bias-hi only set the window of the slack report printed at that frequency",
        )
        p.set_defaults(func=_cmd_sta)

    if "margins" in wanted:
        p = sub.add_parser("margins", help="empirical bias-margin sweep")
        p.add_argument("--config", required=True)
        p.add_argument("--freqs", required=True, help="comma-separated list, e.g. 20GHz,50GHz,100GHz")
        p.add_argument("--out", help="write the sweep as CSV to this path")
        p.set_defaults(func=_cmd_margins)

    if "density" in wanted:
        p = sub.add_parser("density", help="delay-line storage density tables", formatter_class=_PresetHelp)
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--preset", help="one of the presets")
        group.add_argument("--all", action="store_true", help="all presets, verified against published figures")
        p.add_argument("--freqs", help="comma-separated drive frequencies (default 20,50,75,100 GHz)")
        p.add_argument("--layers", type=int, help="stacking-projection layer count (single preset only)")
        p.add_argument("--format", choices=("table", "csv"), default="table")
        p.add_argument("--out", help="write the report to this path instead of stdout")
        p.set_defaults(func=_cmd_density)

    if "characterize" in wanted:
        p = sub.add_parser("characterize", help="sweep one cell's delay over bias")
        p.add_argument("--config", required=True)
        p.add_argument("--cell", required=True)
        p.add_argument("--lo", help="sweep start ratio (default: cell range low edge)")
        p.add_argument("--hi", help="sweep end ratio")
        p.add_argument("--step", default="0.02", help="sweep step (ratio units)")
        p.add_argument("--out", help="write the sweep as CSV to this path")
        p.set_defaults(func=_cmd_characterize)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(*argv[:1]).parse_args(argv)
    try:
        code = _run(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
    except BrokenPipeError:
        # stdout's reader went away (``| head -1``).  As the Python docs' SIGPIPE
        # note advises, point stdout at devnull so the flush at exit is quiet.
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except OSError:  # io.UnsupportedOperation: a stdout with no descriptor leaves nothing to flush at exit
            pass
        return EXIT_BROKEN_PIPE
    return code


def _run(args: argparse.Namespace) -> int:
    """The command's exit code, with a refused input reported on stderr."""
    try:
        return args.func(args)
    except InfeasibleFrequencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except RunawayQueueError as exc:
        print(f"error: max_events: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FluxloopError as exc:  # a ConfigError, BiasRangeError or any other refused input
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
