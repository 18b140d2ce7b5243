"""One benchmark process: imports fluxloop from the checkout and runs passes.

A pass is one call of ``fluxloop.cli.main`` with stdout captured, timed
with a host-speed correction (hostspeed.py) and followed, outside the timed
region, by the checks of :func:`workloads.check_pass`.  Passes form a closed
loop: one caller, each pass starting when the previous one has returned.
Modes:

* ``warm``  -- the first pass of the fresh process (a cold pass, as a CLI
  user pays it), then warm passes until ``--seconds`` have passed since the
  first one started (at least one).  With ``--final`` it then makes one traced pass, for
  the exact work count per pass, and the trace.csv check.
* ``trace`` -- one untimed pass, then pairs of an untraced and a traced
  pass for ``--seconds``.

The process prints one JSON object on its last stdout line; run.py reads it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import sys
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import hostspeed
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass
class Session:
    """A workload bound to a work directory, with its pass accounting."""

    workload: workloads.Workload
    workdir: Path
    seed: int
    pins: dict
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def setup(self) -> None:
        """Import fluxloop from the checkout and parse the workload's documents."""
        import fluxloop
        import fluxloop.cli

        if not Path(fluxloop.__file__).resolve().is_relative_to(SRC):
            raise SystemExit(f"fluxloop was imported from {fluxloop.__file__}, not from {SRC}")
        self.fluxloop = fluxloop
        self.config = fluxloop.core.parse_config((self.workdir / workloads.CONFIG_FILE).read_text())
        self.program = self.expected_reads = None
        if self.workload.seeded:
            self.program = fluxloop.memory.parse_program((self.workdir / workloads.PROGRAM_FILE).read_text())
            self.expected_reads = fluxloop.memory.oracle(self.program, self.config.num_addresses)
        self.argv = self.workload.argv(self.workdir)
        self.digests = workloads.pins_for(self.workload, self.seed, self.pins)

    def run_pass(self) -> hostspeed.Bracket:
        """One checked pass; returns its timing.  A failed check counts it failed."""
        for name in self.workload.outputs:
            (self.workdir / name).unlink(missing_ok=True)
        gc.collect()
        out = io.StringIO()
        self.attempted += 1
        with hostspeed.Bracket() as timing:
            try:
                with contextlib.redirect_stdout(out):
                    code = self.fluxloop.cli.main(self.argv)
            except Exception as exc:
                traceback.print_exc()
                code = f"{type(exc).__name__}: {exc}"
        self.account(workloads.check_pass(
            self.workload, code, out.getvalue(), self.workdir, self.digests, self.expected_reads
        ))
        return timing

    def check_csv_rendering(self) -> None:
        """Render the store_stream run as CSV and check it, outside any timed pass."""
        if not self.workload.seeded:
            return
        self.attempted += 1
        memory, engine = self.fluxloop.memory, self.fluxloop.engine
        result = memory.run_program(self.program, self.config)
        text = engine.trace_to_csv(result.trace)
        (self.workdir / workloads.TRACE_CSV).write_text(text)
        problems = []
        if result.reads != self.expected_reads:
            problems.append("trace.csv run: reads differ from memory.oracle")
        want = self.digests.get(workloads.TRACE_CSV)
        if want is not None and workloads.digest(text.encode()) != want:
            problems.append("trace.csv digest differs from the pinned one")
        self.account(problems)

    def account(self, problems: list[str]) -> None:
        if problems:
            self.failed += 1
            self.problems.extend(problems)
            print(f"{self.workload.name}: pass failed: {'; '.join(problems)}", file=sys.stderr)

    def summary(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "problems": self.problems[:10]}


def run_warm(session: Session, seconds: float, final: bool) -> dict:
    session.setup()
    end = perf_counter() + seconds
    first = session.run_pass()
    times = []
    while perf_counter() < end or not times:
        times.append(session.run_pass())
    result = {
        "first_pass_s": first.seconds,
        "first_pass_wall_s": first.wall,
        "pass_s": [t.seconds for t in times],
        "pass_wall_s": [t.wall for t in times],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if final:
        with spans.Tracer() as tracer:
            session.run_pass()
        result["work_per_pass"] = spans.layer_metrics(*tracer.take()).get(session.workload.work_count, 0)
        session.check_csv_rendering()
    return {**result, **session.summary()}


def corrected(metrics: dict[str, float], scale: float) -> dict[str, float]:
    """Scale a pass's layer times to nominal host speed; counts stay exact."""
    return {name: value * scale if name.endswith((".s", "_s")) else value for name, value in metrics.items()}


def tracer_overhead(differences: list[float]) -> tuple[float, float]:
    """The median of paired (traced - untraced) pass times and its standard
    error, estimated from their interquartile range; the error is infinite
    with too few pairs to estimate it."""
    median = statistics.median(differences)
    if len(differences) < 4:
        return median, float("inf")
    q1, _, q3 = statistics.quantiles(differences, n=4)
    sigma = (q3 - q1) / 1.349
    return median, 1.2533 * sigma / len(differences) ** 0.5


def run_trace(session: Session, seconds: float) -> dict:
    session.setup()
    session.run_pass()
    overheads, per_pass, span_log = [], [], []
    end = perf_counter() + seconds
    while perf_counter() < end or not overheads:
        untraced = session.run_pass()
        with spans.Tracer() as tracer:
            timing = session.run_pass()
        overheads.append(timing.seconds - untraced.seconds)
        pass_spans, counts = tracer.take()
        per_pass.append(corrected(spans.layer_metrics(pass_spans, counts), timing.scale))
        span_log.append(pass_spans)

    with spans.Tracer() as tracer, hostspeed.Bracket() as timing:
        session.check_csv_rendering()
    csv_spans, _ = tracer.take()
    span_log.append(csv_spans)
    spans.Tracer.dump(span_log, session.workdir / "spans.jsonl")

    names = sorted(set().union(*per_pass))
    layers = {name: statistics.median(p.get(name, 0) for p in per_pass) for name in names}
    counts_vary = sorted(
        name for name in names
        if spans.is_exact(name) and len({p.get(name, 0) for p in per_pass}) > 1
    )
    if counts_vary:
        session.account([f"exact counts differ between passes: {', '.join(counts_vary)}"])
    if session.workload.seeded:
        csv_metrics = corrected(spans.layer_metrics(csv_spans, Counter()), timing.scale)
        layers["engine.trace_to_csv.s"] = csv_metrics["engine.trace_to_csv.s"]
    run_until_s = layers.get("engine.run_until.s", 0)
    layers["engine.run_until.events_per_s"] = (
        layers.get("engine.observed_events", 0) / run_until_s if run_until_s else 0.0
    )
    layers["trace.overhead_s"], noise = tracer_overhead(overheads)
    resolved = "resolved" if layers["trace.overhead_s"] > 2 * noise else "unresolved: within the noise"
    return {
        "layers": layers,
        "traced_passes": len(overheads),
        "notes": {"trace.overhead_s": f"median of {len(overheads)} traced-minus-untraced pairs, "
                                      f"standard error {noise:.2g} s; {resolved}"},
        **session.summary(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("warm", "trace"), required=True)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--final", action="store_true", help="also count the work per pass and check trace.csv")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    session = Session(workloads.WORKLOADS[args.workload], args.workdir, args.seed, workloads.load_pins())
    if args.mode == "warm":
        result = run_warm(session, args.seconds, args.final)
    else:
        result = run_trace(session, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
