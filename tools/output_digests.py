"""Print a SHA-256 digest of every output of a fixed set of engine runs.

The 14 runs are the three benchmark workloads (``value_paper``,
``simulate_fan`` and ``book_close``) at seeds 1-3, with inputs generated by
``bench/workloads.py``, and the five sample runs of ``sample_inputs/``. Every
job runs in this process through ``protval.cli.main``, on the ``src/`` of the
checkout that holds this file. One line is printed per job's exit code, per
job's stdout and per output file:

    <run>/<job>/<file> <sha256>

Manifests are hashed without ``config_path``, which names where the inputs
sit. Only while ``digest_lines`` runs are ``src/`` and ``bench/`` first on
``sys.path`` and bytecode writing off; loading this file changes neither.
``tests/golden_digests.txt`` holds these lines, and ``tests/test_golden.py``
checks every one of them, so a change that moves an output byte fails there.
Regenerate the file with

    PYTHONPATH=src python3 tools/output_digests.py > tests/golden_digests.txt

only at a deliberate, versioned break of the outputs, or in a change of
``bench/workloads.py``, and give the reason in CHANGES.md. The digests are
float64 results of numpy's kernels on an x86-64 CPU with AVX-512, where
``np.log``, ``np.exp`` and ``**`` may differ in the last bit from other
builds. They also hold for one numpy release only: numpy does not promise
that a ``Generator`` method returns the same stream across its versions
(NEP 19).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]
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


@contextlib.contextmanager
def _engine_on_path():
    """``src/`` and ``bench/`` first on ``sys.path`` and no bytecode written, both restored on exit."""
    path, dont_write_bytecode = sys.path[:], sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no __pycache__ in src/ or bench/
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    try:
        yield
    finally:
        sys.path[:] = path
        sys.dont_write_bytecode = dont_write_bytecode


def run_job(main: Callable[[list[str]], int], name: str, argv: list[str], out_dir: Path) -> list[str]:
    """Run one engine command through ``main``; return the digest lines of its exit code, stdout and files."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    lines = [f"{name}/<exit> {code}", f"{name}/<stdout> {_sha256(stdout.getvalue().encode('utf-8'))}"]
    if out_dir.is_dir():
        lines += [f"{name}/{path.name} {_file_digest(path)}" for path in sorted(out_dir.iterdir())]
    return lines


def digest_lines(scratch: Path) -> list[str]:
    """Generate every run's inputs under ``scratch``, run its jobs and return all digest lines."""
    with _engine_on_path():
        import workloads
        from protval.cli import main

        lines = []
        for workload in workloads.WORKLOADS:
            for seed in SEEDS:
                run = f"{workload}_seed{seed}"
                for job in workloads.build(workload, seed, scratch / run).jobs:
                    lines += run_job(main, f"{run}/{job.name}", job.argv, job.out_dir)
        for config_name, command in SAMPLE_RUNS.items():
            inputs = scratch / f"sample_{config_name}"
            shutil.copytree(ROOT / "sample_inputs", inputs, ignore=shutil.ignore_patterns("out"))
            config = inputs / config_name
            out_dir = inputs / json.loads(config.read_text(encoding="utf-8"))["output_dir"]
            lines += run_job(main, f"sample/{config_name}", [command, "--config", str(config)], out_dir)
    return lines


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        print("\n".join(digest_lines(Path(scratch))))
