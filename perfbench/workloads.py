"""The benchmark's workloads: generated inputs, command lines and output checks.

Each workload is one ``fluxloop`` CLI invocation on fixed documents.  They
were chosen because each stresses layers the others barely touch:

* ``store_stream``  -- one long simulation: the ``run_until`` kernel, the
  read decode in ``run_program``, stimulus/schedule and VCD export;
* ``margin_sweep``  -- 543 short simulations at off-nominal bias that run
  into violations: per-run set-up (``default_cell_params``,
  ``build_controller``) dominates, decode is negligible;
* ``sta_find_max``  -- 901 ``timing.sta`` evaluations and no simulation, so
  a kernel change must read as no change here.

Only ``store_stream`` depends on the seed.  Its outputs are pinned by digest
for :data:`DEFAULT_SEED`; on any other seed its reads are checked against
``memory.oracle`` only.  The other two workloads are pinned on every seed.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 1
PINS_FILE = Path(__file__).with_name("pins.json")

STORE_ADDRESSES = 64
STORE_TRIPS = 200
STORE_READS_PER_TRIP = 16

CONFIG_FILE = "config.json"
PROGRAM_FILE = "program.json"
#: The CSV rendering of the store_stream run, made outside the timed pass.
TRACE_CSV = "trace.csv"

_READ_LINE = re.compile(r"^trip (\d+): addr (\d+) -> ([01])", re.MULTILINE)


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    args: tuple[str, ...]
    #: Files the command writes into the work directory, checked by digest.
    outputs: tuple[str, ...] = ()
    #: True when the inputs, and so the pinned digests, depend on the seed.
    seeded: bool = False
    #: The exact per-pass count that ``events_per_s`` divides by pass time.
    work_count: str = "engine.observed_events"

    def argv(self, workdir: Path) -> list[str]:
        return [arg.format(dir=workdir) for arg in self.args]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "store_stream",
            {"frequency": "100GHz", "num_addresses": STORE_ADDRESSES},
            ("simulate", "--config", "{dir}/" + CONFIG_FILE, "--program", "{dir}/" + PROGRAM_FILE,
             "--trace", "{dir}/out.vcd"),
            outputs=("out.vcd",),
            seeded=True,
        ),
        Workload(
            "margin_sweep",
            {"frequency": "100GHz", "num_addresses": 3},
            ("margins", "--config", "{dir}/" + CONFIG_FILE, "--freqs", "20GHz,50GHz,75GHz,100GHz",
             "--out", "{dir}/margins.csv"),
            outputs=("margins.csv",),
        ),
        Workload(
            "sta_find_max",
            {"frequency": "100GHz", "num_addresses": 3},
            ("sta", "--config", "{dir}/" + CONFIG_FILE, "--find-max", "--bias-lo", "0.87",
             "--bias-hi", "1.13"),
            work_count="timing.sta.calls",
        ),
    )
}


def store_program(seed: int) -> str:
    """The store_stream program for a seed.

    Each trip writes one random address and reads 16 distinct random
    addresses.  The write stores a 1 into an address holding 0 while fewer
    than half the addresses hold a 1, and a 0 into one holding 1 otherwise.
    The store thus stays half full, so the pulses in flight, and with them
    the work per pass, barely depend on the seed; only what is stored where
    does.
    """
    rng = random.Random(seed)
    bits = [0] * STORE_ADDRESSES
    trips = []
    for _ in range(STORE_TRIPS):
        bit = 1 if 2 * sum(bits) < STORE_ADDRESSES else 0
        addr = rng.choice([a for a in range(STORE_ADDRESSES) if bits[a] != bit])
        bits[addr] = bit
        trips.append({
            "write": {"addr": addr, "bit": bit},
            "reads": sorted(rng.sample(range(STORE_ADDRESSES), STORE_READS_PER_TRIP)),
        })
    return json.dumps({"trips": trips}, sort_keys=True) + "\n"


def write_inputs(workload: Workload, seed: int, workdir: Path) -> None:
    """Write the documents the command reads; the CLI sees only these files."""
    (workdir / CONFIG_FILE).write_text(json.dumps(workload.config, sort_keys=True) + "\n")
    if workload.seeded:
        (workdir / PROGRAM_FILE).write_text(store_program(seed))


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_pins() -> dict:
    return json.loads(PINS_FILE.read_text())


def pins_for(workload: Workload, seed: int, pins: dict) -> dict[str, str]:
    """Digests that apply to this run: none for a seeded workload off the default seed."""
    if workload.seeded and seed != DEFAULT_SEED:
        return {}
    return pins[workload.name]


def decoded_reads(stdout: str) -> dict[tuple[int, int], int]:
    return {(int(t), int(a)): int(b) for t, a, b in _READ_LINE.findall(stdout)}


def check_pass(
    workload: Workload,
    code: int | str,
    stdout: str,
    workdir: Path,
    pins: dict[str, str],
    expected_reads: dict[tuple[int, int], int] | None,
) -> list[str]:
    """Every problem with one pass's outputs; an empty list means it passed."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if expected_reads is not None and decoded_reads(stdout) != expected_reads:
        problems.append("reads differ from memory.oracle")
    for name, want in sorted(pins.items()):
        if name == TRACE_CSV:
            continue
        if name == "stdout":
            got = digest(stdout.encode())
        else:
            path = workdir / name
            got = digest(path.read_bytes()) if path.is_file() else "missing"
        if got != want:
            problems.append(f"{name} digest {got[:12]} != pinned {want[:12]}")
    return problems
