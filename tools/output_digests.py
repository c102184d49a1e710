"""Print a SHA-256 digest of every output of a fixed set of engine runs.

The runs are the three benchmark workloads (``value_paper``, ``simulate_fan``
and ``book_close``) at seeds 1-3, with inputs generated by
``bench/workloads.py``, and the five sample runs of ``sample_inputs/``. Every
job runs in this process through ``protval.cli.main``, on the ``src/`` of the
checkout that holds this file. Every job runs twice, with
``os.sched_getaffinity`` patched to report one usable core and then two, so
that the in-process and the forked paths of ``simulate`` and ``value`` both
run on any host; if the two runs differ, the script exits 1 naming the first
file that differs. One line is printed per job's exit code, per job's stdout
and per output file:

    <run>/<job>/<file> <sha256>

Manifests are hashed without ``config_path``, which names where the inputs
sit. To show that a change keeps every output byte, run this in both
checkouts and compare:

    python3 tools/output_digests.py > after.txt
    diff before.txt after.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True  # leave no __pycache__ in bench/
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402
from protval.cli import main  # noqa: E402

SEEDS = (1, 2, 3)
SAMPLE_RUNS = {
    "run_price_cap.json": "price-cap",
    "run_simulate.json": "simulate",
    "run_value.json": "value",
    "run_value_replay.json": "value",
    "run_calibrate.json": "calibrate-spread",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name.endswith("_manifest.json"):
        manifest = json.loads(data)
        del manifest["config_path"]
        data = json.dumps(manifest, sort_keys=True).encode("utf-8")
    return _sha256(data)


def _job_digests(name: str, argv: list[str], out_dir: Path) -> list[str]:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    lines = [f"{name}/<exit> {code}", f"{name}/<stdout> {_sha256(stdout.getvalue().encode('utf-8'))}"]
    if out_dir.is_dir():
        lines += [f"{name}/{path.name} {_file_digest(path)}" for path in sorted(out_dir.iterdir())]
    return lines


def run_job(name: str, argv: list[str], out_dir: Path) -> list[str]:
    """Run one engine command on one usable core and on two; return the digest lines of its exit code, stdout and files.

    Exits 1, naming the first differing file, when the two runs differ.
    """
    runs = []
    for cores in (1, 2):
        shutil.rmtree(out_dir, ignore_errors=True)
        with mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(cores)), create=True):
            runs.append(_job_digests(name, argv, out_dir))
    if runs[0] != runs[1]:
        differing = sorted(set(runs[0]) ^ set(runs[1]))[0].split(" ")[0]
        sys.exit(f"error: {differing} differs between one and two usable cores")
    return runs[0]


def digest_lines(scratch: Path) -> list[str]:
    """Generate every run's inputs under ``scratch``, run its jobs and return all digest lines."""
    lines = []
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            run = f"{workload}_seed{seed}"
            for job in workloads.build(workload, seed, scratch / run).jobs:
                lines += run_job(f"{run}/{job.name}", job.argv, job.out_dir)
    for config_name, command in SAMPLE_RUNS.items():
        inputs = scratch / f"sample_{config_name}"
        shutil.copytree(ROOT / "sample_inputs", inputs, ignore=shutil.ignore_patterns("out"))
        config = inputs / config_name
        out_dir = inputs / json.loads(config.read_text(encoding="utf-8"))["output_dir"]
        lines += run_job(f"sample/{config_name}", [command, "--config", str(config)], out_dir)
    return lines


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        print("\n".join(digest_lines(Path(scratch))))
