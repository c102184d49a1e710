"""protval benchmark: drive the engine's CLI on seeded inputs and check every output.

Usage (from the root of a checkout):

    python3 bench/run.py --workload value_paper --seed 1 --seconds 20 --trace 0

The benchmark generates the workload's inputs from ``--seed``, times cold
interpreter starts, then runs the workload's jobs in one worker process: one
warm-up pass, then passes until ``--seconds`` have elapsed, then more cold
starts. Each cold start and each pass is scaled to a fixed host speed with
the calibration loop of ``hostspeed.py``, timed just before and just after
it; ``setup_s`` and ``pass_s`` are medians of the scaled times. Every job's
outputs are checked (see ``checks.py``). With
``--trace 1`` it instead runs an untraced and a traced worker for half the
time each and reports per-layer metrics from the traced one.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. The line before it, prefixed ``record``, holds
the run record (machine, versions, source size, seed and sample counts).
See README.md for the workloads and how the metrics relate.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import workloads  # noqa: E402
from worker import digest_dir  # noqa: E402

# Cold starts taken before and again after the worker, so that their median
# is drawn from both ends of the run.
COLD_STARTS_EACH_SIDE = 8
WORKER_TIMEOUT_S = 150
# The child prints CLOCK_MONOTONIC, which is system-wide on Linux, once
# build_parser() has returned; the parent subtracts its own reading taken
# just before the spawn.
COLD_START_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); import protval.cli; "
    "protval.cli.build_parser(); print(time.clock_gettime(time.CLOCK_MONOTONIC))"
)


def _import_split(importtime: str) -> tuple[float, float]:
    """(numpy, protval without numpy) cumulative import seconds from ``-X importtime``."""
    numpy_us = protval_us = 0
    for line in importtime.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue
        module = name.strip()
        top_level = name.startswith(" ") and not name.startswith("  ")
        if module == "numpy":
            numpy_us += int(cumulative)
        elif top_level and (module == "protval" or module.startswith("protval.")):
            protval_us += int(cumulative)
    return numpy_us * 1e-6, (protval_us - numpy_us) * 1e-6


def cold_starts(src: Path, count: int) -> list[dict]:
    """Time fresh interpreters until ``build_parser()`` returns.

    Each sample holds the wall seconds, the numpy and protval import seconds,
    and the calibration loop's seconds just before and just after the start.
    """
    samples = []
    for _ in range(count):
        before = hostspeed.loop_seconds()
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", COLD_START_CODE, str(src)],
            capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"cold start failed with exit code {proc.returncode}:\n{proc.stderr[-2000:]}")
        numpy_s, protval_s = _import_split(proc.stderr)
        samples.append({
            "wall_s": float(proc.stdout) - start,
            "numpy_s": numpy_s,
            "protval_s": protval_s,
            "loop_s": [before, hostspeed.loop_seconds()],
        })
    return samples


def run_worker(plan: Path, seconds: float, spans: Path | None = None) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), str(plan), repr(seconds)]
    if spans is not None:
        cmd += ["--trace", str(spans)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed with exit code {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _pass_seconds(result: dict) -> list[float]:
    return [p["ns"] * 1e-9 for p in result["passes"]]


def _scaled_passes(result: dict) -> list[float]:
    return [hostspeed.scale(p["ns"] * 1e-9, p["loop_s"]) for p in result["passes"]]


def _scaled_setup(setup: list[dict], key: str) -> list[float]:
    return [hostspeed.scale(s[key], s["loop_s"]) for s in setup]


def _summary(values: list[float]) -> dict:
    """Median, quartiles, count and the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(values)
    q1, med, q3 = statistics.quantiles(ordered, n=4)
    out = {"median": med, "q1": q1, "q3": q3, "n": len(ordered), "values": values}
    for pct in (99.9, 99, 95, 90, 75, 50):
        beyond = int(len(ordered) * (1 - pct / 100))
        if beyond >= 10:
            out[f"p{pct:g}"] = ordered[len(ordered) - beyond - 1]
            break
    return out


def _outcomes(result: dict, job_failed: list[bool]) -> tuple[int, int]:
    """(attempted, failed) over the warm-up and timed passes of one worker."""
    attempted = failed = 0
    for j, error in enumerate(result["warm_errors"]):
        attempted += 1
        failed += bool(error or job_failed[j])
    for p in result["passes"]:
        for j, (error, same) in enumerate(zip(p["errors"], p["same"])):
            attempted += 1
            failed += bool(error or not same or job_failed[j])
    return attempted, failed


def _cpu_model() -> str:
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor()


def _record(args: argparse.Namespace, root: Path, src: Path, setup: list, results: list[dict]) -> dict:
    import numpy

    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    files = sorted(src.rglob("*.py"))
    digest = hashlib.sha256()
    for f in files:
        digest.update(f.relative_to(src).as_posix().encode() + b"\0" + f.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": sum(len(f.read_text(encoding="utf-8").splitlines()) for f in files),
        "cold_starts": len(setup),
        "reference_loop_s": hostspeed.REFERENCE_S,
        "passes": [
            {
                "wall": _summary(_pass_seconds(r)),
                "scaled": _summary(_scaled_passes(r)),
                "loop_s": [p["loop_s"] for p in r["passes"]],
                "job_median_s": [statistics.median(t) * 1e-9 for t in zip(*(p["job_ns"] for p in r["passes"]))],
                "user_median_s": statistics.median(p["user_s"] for p in r["passes"]),
                "sys_median_s": statistics.median(p["sys_s"] for p in r["passes"]),
            }
            for r in results
        ],
        "setup_s": {
            "wall": _summary([s["wall_s"] for s in setup]),
            "scaled": _summary(_scaled_setup(setup, "wall_s")),
            "loop_s": [s["loop_s"] for s in setup],
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "protval" / "cli.py").is_file():
        print(f"error: {src}/protval not found; run from the root of a protval checkout", file=sys.stderr)
        return 2

    scratch = root / ".bench_work"
    work = scratch / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        wl = workloads.build(args.workload, args.seed, work)
        setup = cold_starts(src, COLD_STARTS_EACH_SIDE)
        plan = work / "plan.json"
        plan.write_text(json.dumps({
            "src": str(src),
            "jobs": [{"argv": j.argv, "out_dir": str(j.out_dir)} for j in wl.jobs],
        }), encoding="utf-8")

        if args.trace:
            plain = run_worker(plan, args.seconds / 2)
            traced = run_worker(plan, args.seconds / 2, spans=scratch / f"spans-{args.workload}.csv")
            results = [plain, traced]
        else:
            results = [run_worker(plan, args.seconds)]
        setup += cold_starts(src, COLD_STARTS_EACH_SIDE)

        last = results[-1]
        messages = []
        job_failed = []
        for j, job in enumerate(wl.jobs):
            found = checks.check_job(job, wl)
            on_disk = digest_dir(job.out_dir)
            if on_disk != last["reference"][j]:
                found.append(f"{job.name}: last pass's outputs differ from the warm-up pass's")
            if any(r["reference"][j] != last["reference"][j] for r in results):
                found.append(f"{job.name}: traced outputs differ from untraced outputs")
            messages += found
            job_failed.append(bool(found))
        for r in results:
            for p in [{"errors": r["warm_errors"]}] + r["passes"]:
                messages += [f"{wl.jobs[j].name}: {e}" for j, e in enumerate(p["errors"]) if e]
        attempted = failed = 0
        for r in results:
            a, f = _outcomes(r, job_failed)
            attempted += a
            failed += f

        if args.trace:
            from tracing import UNITS, median_metrics

            values = {
                "setup.numpy_import_s": statistics.median(_scaled_setup(setup, "numpy_s")),
                "setup.protval_import_s": statistics.median(_scaled_setup(setup, "protval_s")),
                **median_metrics([p["layers"] for p in traced["passes"]]),
                "trace.overhead_s": statistics.median(_scaled_passes(traced))
                - statistics.median(_scaled_passes(plain)),
                "fail_ratio": failed / attempted,
            }
            metrics = {k: (v, UNITS[k]) for k, v in values.items()}
        else:
            metrics = {
                "setup_s": (statistics.median(_scaled_setup(setup, "wall_s")), "s"),
                "pass_s": (statistics.median(_scaled_passes(last)), "s"),
                "peak_rss_mib": (last["max_rss_kib"] / 1024, "MiB"),
            }
        record = _record(args, root, src, setup, results)
        record["fail_ratio"] = failed / attempted
        record["failures"] = messages[:20]
        if args.trace:
            record["spans"] = traced["spans"]
        print("record " + json.dumps(record))
        for m in messages[:20]:
            print(f"check failed: {m}", file=sys.stderr)
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
