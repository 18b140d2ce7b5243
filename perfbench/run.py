"""fluxloop benchmark: one workload, end-to-end metrics or a traced layer breakdown.

Usage (from the repository root; standard library only)::

    python3 perfbench/run.py --workload store_stream --seed 1 --seconds 28 --trace 0

Each run builds the program from ``src/`` (it byte-compiles the package),
writes the workload's input documents into ``.perfbench_out/<workload>/``
and drives ``fluxloop.cli.main`` in worker processes (see worker.py):

* ``--trace 0`` -- end to end, untraced.  ``PROCESSES`` fresh worker
  processes run one after another, each preceded by ``PROBES_PER_PROCESS``
  set-up probes (setup_probe.py: import fluxloop, parse the documents).
  Each worker times its first (cold) pass, then warm passes in a closed
  loop (one caller), for its share of ``--seconds`` in all.  The host drifts
  in speed over seconds, so every kind of sample is spread over the whole
  run.  Metrics: ``setup_s`` and ``first_pass_s`` (medians over the probes
  and workers), ``pass_s.p50`` and ``pass_s.tail`` (over the pooled warm
  passes; see :func:`tail`), ``events_per_s`` (exact work per pass over
  ``pass_s.p50``; on sta_find_max the work is ``timing.sta`` evaluations,
  as it simulates nothing) and ``peak_rss_mb`` (the largest worker's).
* ``--trace 1`` -- one process alternates untraced and traced passes for
  ``--seconds`` and reports per-layer medians over the traced passes, plus
  ``trace.overhead_s`` (the median over pairs of a traced pass minus the
  untraced pass just before it, flagged unresolved when it lies within
  twice its standard error).

All times are host wall seconds corrected for host-speed drift
(hostspeed.py).  Every pass is checked (workloads.check_pass); a pass whose
exit code, reads or pinned digests are wrong counts as failed, and the
report prints the fail ratio.  Each metric is listed with its unit and
sample count; the last stdout line is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Metric names and units come from
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "fluxloop"
OUT = ROOT / ".perfbench_out"

#: Fresh processes per end-to-end run; each contributes one cold pass and
#: an equal share of the warm passes, so every metric samples the whole run.
#: Eight cold passes keep first_pass_s steady across seeds.  The warm-pass
#: count, which sets how far out pass_s.tail lies, hardly depends on it,
#: since each worker's last pass overruns its share by half a pass on average.
PROCESSES = 8
#: Set-up probes are cheap fresh processes, run before each worker.
PROBES_PER_PROCESS = 3
#: A run must end within this many seconds, whatever its workers do.
RUN_DEADLINE_S = 170
#: Samples that must lie beyond the tail percentile.
TAIL_BEYOND = 10


def tail(samples: list[float]) -> tuple[float, int]:
    """The highest nearest-rank percentile with TAIL_BEYOND samples beyond it,
    but never below the median; returns (value, percentile)."""
    ordered = sorted(samples)
    n = len(ordered)
    rank = max(n - TAIL_BEYOND, n // 2 + 1)
    return ordered[rank - 1], rank * 100 // n


def last_line(command: list[str], what: str, deadline: float) -> str:
    """Run one child process to completion and return its last stdout line."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: {what} ran past the deadline")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"perfbench: {what} exited with {done.returncode}")
    return lines[-1]


def spawn(mode: str, args: argparse.Namespace, workdir: Path, deadline: float, seconds: float,
          final: bool = False) -> dict:
    command = [
        sys.executable, str(HERE / "worker.py"), "--mode", mode, "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(seconds), "--workdir", str(workdir),
    ] + (["--final"] if final else [])
    return json.loads(last_line(command, f"{mode} worker for {args.workload}", deadline))


def probe_setup(workload: workloads.Workload, workdir: Path, deadline: float) -> tuple[float, float]:
    """(corrected, wall) seconds of one fresh process's import and parse."""
    command = [sys.executable, str(HERE / "setup_probe.py"), str(PACKAGE.parent), str(workdir / workloads.CONFIG_FILE)]
    if workload.seeded:
        command.append(str(workdir / workloads.PROGRAM_FILE))
    seconds, wall = last_line(command, "set-up probe", deadline).split()
    return float(seconds), float(wall)


def end_to_end(args: argparse.Namespace, workdir: Path, deadline: float) -> tuple[list[dict], dict]:
    workload = workloads.WORKLOADS[args.workload]
    setup, results = [], []
    for i in range(PROCESSES):
        setup += [probe_setup(workload, workdir, deadline) for _ in range(PROBES_PER_PROCESS)]
        results.append(spawn("warm", args, workdir, deadline, args.seconds / PROCESSES, final=i == PROCESSES - 1))

    setup_s, setup_wall = zip(*setup)
    first = [r["first_pass_s"] for r in results]
    first_wall = [r["first_pass_wall_s"] for r in results]
    passes = [t for r in results for t in r["pass_s"]]
    p50 = statistics.median(passes)
    tail_s, tail_pct = tail(passes)
    wall_p50 = statistics.median(t for r in results for t in r["pass_wall_s"])
    work = results[-1]["work_per_pass"]
    rows = {
        "setup_s": (statistics.median(setup_s),
                    f"median of {len(setup_s)} fresh processes; wall {statistics.median(setup_wall):.4g}"),
        "first_pass_s": (statistics.median(first),
                         f"median of {len(first)} fresh processes; wall {statistics.median(first_wall):.4g}"),
        "pass_s.p50": (p50, f"n={len(passes)} warm passes; wall {wall_p50:.4g}"),
        "pass_s.tail": (tail_s, f"p{tail_pct}, n={len(passes)} warm passes"),
        "events_per_s": (work / p50, f"{work} {workload.work_count} per pass / pass_s.p50"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in results), f"max of {len(results)} processes"),
    }
    return results, rows


def traced(args: argparse.Namespace, workdir: Path, deadline: float) -> tuple[list[dict], dict]:
    result = spawn("trace", args, workdir, deadline, args.seconds)
    n = f"median of {result['traced_passes']} traced passes"
    rows = {name: (value, result["notes"].get(name, n)) for name, value in result["layers"].items()}
    return [result], rows


def main() -> int:
    deadline = time.monotonic() + RUN_DEADLINE_S
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (PACKAGE / "__init__.py").is_file():
        print(f"perfbench: no fluxloop package at {PACKAGE}", file=sys.stderr)
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if not compileall.compile_dir(PACKAGE, quiet=1):
        print("perfbench: fluxloop does not compile", file=sys.stderr)
        return 2

    workdir = OUT / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = workloads.WORKLOADS[args.workload]
    workloads.write_inputs(workload, args.seed, workdir)

    results, rows = (traced if args.trace else end_to_end)(args, workdir, deadline)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    pinned = "digests pinned" if workloads.pins_for(workload, args.seed, workloads.load_pins()) else "oracle only"

    print(f"workload {args.workload}, seed {args.seed} ({pinned}), trace {args.trace}, "
          f"{args.seconds} s, closed loop, 1 caller")
    metrics = {}
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        value, note = rows.get(name, (0, "not exercised by this workload"))
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:<34} {value:>14.6g} {unit:<6} ({note})")
    print(f"  {'fail_ratio':<34} {failed / attempted:>14.6g} {'':<6} ({failed} of {attempted} passes failed)")
    for problem in sorted({p for r in results for p in r["problems"]}):
        print(f"  problem: {problem}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
