"""Self-tests of the benchmark harness (not of fluxloop itself).

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import shutil
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from worker import Session  # noqa: E402

import fluxloop  # noqa: E402
import fluxloop.cli  # noqa: E402

WORKDIR = HERE.parent / ".perfbench_out" / "selftest"


def module_attributes() -> dict:
    return {(m.__name__, name): value for m in spans.fluxloop_modules() for name, value in vars(m).items()}


class TracerTest(unittest.TestCase):
    def setUp(self):
        WORKDIR.mkdir(parents=True, exist_ok=True)
        self.addCleanup(shutil.rmtree, WORKDIR, ignore_errors=True)

    def test_wrappers_are_fully_removed_after_a_traced_run(self):
        before = module_attributes()
        workload = workloads.WORKLOADS["store_stream"]
        config = WORKDIR / workloads.CONFIG_FILE
        config.write_text('{"frequency": "100GHz", "num_addresses": 3}')
        program = WORKDIR / workloads.PROGRAM_FILE
        program.write_text('{"trips": [{"write": {"addr": 1, "bit": 1}, "reads": [1]}, {"reads": [1]}]}')

        with spans.Tracer() as tracer:
            wrapped = spans.leftover_wrappers()
            code = fluxloop.cli.main(workload.argv(WORKDIR))
        self.assertEqual(code, 0)
        for name in ("fluxloop.cli.default_cell_params", "fluxloop.memory.default_cell_params",
                     "fluxloop.timing.default_cell_params", "fluxloop.cells.default_cell_params",
                     "fluxloop.timing.run_program", "fluxloop.cli.main"):
            self.assertIn(name, wrapped)

        self.assertEqual(spans.leftover_wrappers(), [])
        self.assertEqual(module_attributes().keys(), before.keys())
        for key, value in module_attributes().items():
            self.assertIs(value, before[key], key)

        recorded, counts = tracer.take()
        metrics = spans.layer_metrics(recorded, counts)
        self.assertEqual(metrics["cli.main.calls"], 1)
        self.assertEqual(metrics["memory.run_program.calls"], 1)
        self.assertEqual(metrics["memory.reads_decoded"], 2)
        self.assertNotIn("timing.run_program.calls", metrics)
        # self times partition the root span exactly
        root = [s for s in recorded if s[1] == -1]
        self.assertEqual(len(root), 1)
        self.assertAlmostEqual(sum(s[6] for s in recorded), root[0][5] - root[0][4], places=9)


class PassCheckTest(unittest.TestCase):
    def setUp(self):
        WORKDIR.mkdir(parents=True, exist_ok=True)
        self.addCleanup(shutil.rmtree, WORKDIR, ignore_errors=True)
        self.workload = workloads.WORKLOADS["sta_find_max"]
        workloads.write_inputs(self.workload, workloads.DEFAULT_SEED, WORKDIR)

    def session(self, pins: dict) -> Session:
        session = Session(self.workload, WORKDIR, workloads.DEFAULT_SEED, pins)
        session.setup()
        return session

    def test_pinned_digests_pass(self):
        session = self.session(workloads.load_pins())
        session.run_pass()
        self.assertEqual((session.attempted, session.failed), (1, 0))

    def test_a_corrupted_pinned_digest_fails_the_pass(self):
        pins = workloads.load_pins()
        good = pins[self.workload.name]["stdout"]
        pins[self.workload.name]["stdout"] = ("0" if good[0] != "0" else "1") + good[1:]
        session = self.session(pins)
        session.run_pass()
        self.assertEqual((session.attempted, session.failed), (1, 1))
        self.assertIn("stdout digest", session.problems[0])


class InputsTest(unittest.TestCase):
    def test_the_same_seed_gives_byte_identical_program_json(self):
        self.assertEqual(workloads.store_program(5).encode(), workloads.store_program(5).encode())
        self.assertNotEqual(workloads.store_program(5), workloads.store_program(6))

    def test_the_program_has_the_documented_size(self):
        program = fluxloop.memory.parse_program(workloads.store_program(3))
        self.assertEqual(len(program.trips), workloads.STORE_TRIPS)
        for trip in program.trips:
            self.assertIsNotNone(trip.write)
            self.assertEqual(len(set(trip.reads)), workloads.STORE_READS_PER_TRIP)

    def test_tail_keeps_ten_samples_beyond_it_and_never_drops_below_the_median(self):
        self.assertEqual(run.tail([float(i) for i in range(1, 26)]), (15.0, 60))
        self.assertEqual(run.tail([1.0, 2.0, 3.0, 4.0]), (3.0, 75))


if __name__ == "__main__":
    unittest.main()
