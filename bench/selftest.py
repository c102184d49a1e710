"""Self-test of the benchmark's output checks.

Run from the root of a checkout: python3 bench/selftest.py

It runs two workloads' jobs once through ``protval.cli.main``, checks that
their outputs pass, then corrupts one byte at a time, in pinned files and
in seeded ones, and checks that each corruption fails its job and counts as
a failed job in the run's tally.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(Path.cwd() / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from protval import cli  # noqa: E402

WORK = Path.cwd() / ".bench_work" / "selftest"


def _run_jobs(wl: workloads.Workload) -> None:
    for job in wl.jobs:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(job.argv) == 0, job.name


@contextlib.contextmanager
def corrupted(path: Path, marker: bytes, skip: int = 3):
    """Replace the first digit at least ``skip`` bytes after ``marker``."""
    original = path.read_bytes()
    at = original.index(marker) + len(marker) + skip
    while not chr(original[at]).isdigit():
        at += 1
    digit = b"7" if original[at:at + 1] != b"7" else b"3"
    path.write_bytes(original[:at] + digit + original[at + 1:])
    try:
        yield
    finally:
        path.write_bytes(original)


class OutputChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls) -> None:
        shutil.rmtree(WORK, ignore_errors=True)
        cls.book = workloads.build("book_close", 7, WORK / "book")
        cls.fan = workloads.build("simulate_fan", 7, WORK / "fan")
        _run_jobs(cls.book)
        _run_jobs(cls.fan)

    @classmethod
    def tearDownClass(cls) -> None:
        shutil.rmtree(WORK, ignore_errors=True)

    def job(self, wl: workloads.Workload, name: str) -> workloads.Job:
        return next(j for j in wl.jobs if j.name == name)

    def test_clean_outputs_pass(self) -> None:
        for wl in (self.book, self.fan):
            for job in wl.jobs:
                self.assertEqual(checks.check_job(job, wl), [], job.name)

    def assert_detected(
        self, wl: workloads.Workload, name: str, file: str, marker: bytes, skip: int = 3
    ) -> None:
        job = self.job(wl, name)
        with corrupted(job.out_dir / file, marker, skip):
            failures = checks.check_job(job, wl)
            self.assertTrue(failures, f"corrupted {file} passed the checks")
            job_failed = [j.name == name for j in wl.jobs]
            clean = {"warm_errors": [None] * len(wl.jobs),
                     "passes": [{"errors": [None] * len(wl.jobs), "same": [True] * len(wl.jobs)}]}
            self.assertEqual(run._outcomes(clean, job_failed), (2 * len(wl.jobs), 2))
        self.assertEqual(checks.check_job(job, wl), [])

    def test_pinned_files(self) -> None:
        self.assert_detected(self.book, "price_cap", "cap_report.csv", b"caplet_cost,", 30)
        self.assert_detected(self.book, "value_replay", "risk_report.csv", b"replay_100,")
        self.assert_detected(self.book, "calibrate", "spread_function.json", b'"b": 16.1')
        self.assert_detected(self.book, "value_book", "lognormal_params.csv", b"book_002,", 8)
        self.assert_detected(self.book, "value_book", "risk_report.csv", b"book_001,", 8)

    def test_seeded_files(self) -> None:
        self.assert_detected(self.book, "value_book", "book_005_pvfp_samples.csv", b"\n17,")
        self.assert_detected(self.fan, "simulate", "pf_0_scenarios.csv", b"\n4321,", 5)
        self.assert_detected(self.fan, "simulate", "pf_1_scenarios.csv", b"\n99,", 25)
        self.assert_detected(self.fan, "simulate", "pf_1_fan_chart.csv", b"\n12,")
        self.assert_detected(self.fan, "simulate", "pf_0_histogram.csv", b"count\n", 0)

    def test_declared_per_layer_metrics(self) -> None:
        declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual({m["name"]: m["unit"] for m in declared["per_layer"]}, tracing.UNITS)

    def test_unequal_pass_fails(self) -> None:
        result = {"warm_errors": [None], "passes": [{"errors": [None], "same": [False]}]}
        self.assertEqual(run._outcomes(result, [False]), (2, 1))


if __name__ == "__main__":
    unittest.main()
