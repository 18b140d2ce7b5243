"""Run every workload over ten seeds, twice, and judge the benchmark's steadiness.

    python3 perfbench/suite.py

Each of the two sets runs run.py once per workload of BENCHMARK.json and
seed (set 1 uses seeds 1-10, set 2 seeds 11-20) for BENCHMARK.json's
``run_seconds``, plus one traced run per workload on the default seed.  For
each end-to-end metric and workload it prints its unit, each set's median
over its ten runs, that set's spread (interquartile distance as a share of
the median), how far the second median lies from the first as a share of
the first, and a verdict against the metric's bound from BENCHMARK.json:
``agree`` when both spreads and that distance are within the bound.  Exact
counts from the traced runs must be identical across the sets.  Every
run's result is written to ``.perfbench_out/suite.json``.  Exits 1 on any
disagreement, differing count or failed pass.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = ROOT / ".perfbench_out" / "suite.json"
SETS = 2
SEEDS = 10


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]

    runs: dict = {name: [] for name in names}
    traces: dict = {name: [] for name in names}
    for k in range(SETS):
        for name in names:
            for seed in range(k * SEEDS + 1, (k + 1) * SEEDS + 1):
                result = run(name, seed, spec["run_seconds"], 0)
                runs[name].append({"set": k, "seed": seed, **result})
                print(f"set {k + 1} {name} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}", file=sys.stderr)
            traces[name].append(run(name, workloads.DEFAULT_SEED, spec["run_seconds"], 1))
    RESULTS.parent.mkdir(exist_ok=True)
    RESULTS.write_text(json.dumps({"runs": runs, "traces": traces}, indent=1) + "\n")

    ok = True
    print(f"{SEEDS} runs per set; run.py reports each run's own sample counts")
    print(f"{'workload':<13} {'metric':<14} {'unit':<5} " + " ".join(f"{'median' + str(k + 1):>11} {'spread':>7}" for k in range(SETS))
          + f" {'moved':>8} {'bound':>6}  verdict")
    for name in names:
        for metric in spec["end_to_end"]:
            sets = [[r["metrics"][metric["name"]]["value"] for r in runs[name] if r["set"] == k]
                    for k in range(SETS)]
            medians = [statistics.median(v) for v in sets]
            spreads = [spread(v) for v in sets]
            moved = (medians[1] - medians[0]) / medians[0]
            bound = metric["bound"]
            agree = max(spreads) <= bound and abs(moved) <= bound
            ok &= agree
            steady = "" if max(spreads) < bound / 3 else " (spread above a third of the bound)"
            cells = " ".join(f"{m:>11.5g} {s:>7.2%}" for m, s in zip(medians, spreads))
            print(f"{name:<13} {metric['name']:<14} {metric['unit']:<5} {cells} {moved:>+8.2%} {bound:>6.0%}  "
                  f"{'agree' if agree else 'DISAGREE'}{steady}")
        failed = sum(r["failed"] for r in runs[name]) + sum(t["failed"] for t in traces[name])
        attempted = sum(r["attempted"] for r in runs[name]) + sum(t["attempted"] for t in traces[name])
        ok &= failed == 0
        print(f"{name:<13} fail_ratio     {failed}/{attempted}")
        exact = sorted(m for m in traces[name][0]["metrics"] if spans.is_exact(m))
        differ = [m for m in exact if len({t["metrics"][m]["value"] for t in traces[name]}) > 1]
        ok &= not differ
        print(f"{name:<13} exact counts   "
              + (f"DIFFER: {', '.join(differ)}" if differ else f"identical across {len(traces[name])} traced runs: "
                 + ", ".join(f"{m}={traces[name][0]['metrics'][m]['value']:g}" for m in exact)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
