"""Run a workload's jobs through ``protval.cli.main`` in one process.

Usage: python bench/worker.py PLAN.json SECONDS [--trace SPANS.csv]

PLAN.json lists the jobs (CLI argv and output directory). The worker runs
one warm-up pass, then timed passes until SECONDS have elapsed (at least
three). Output directories are emptied before each pass, outside the timed
region, and each job's output bytes are hashed after it. Each timed pass
is bracketed by the calibration loop of ``hostspeed.py``. With ``--trace``,
the layer modules are wrapped and every timed pass is traced.

The last line of stdout is a JSON object with the per-job times, calibration
loop times, CPU seconds and job outcomes of every pass, the warm-up digests,
peak RSS and, when traced, layer metrics.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import shutil
import sys
import time
from pathlib import Path

import hostspeed

MIN_PASSES = 3


def digest_dir(path: Path) -> str:
    """SHA-256 over the sorted file names and bytes of a directory."""
    h = hashlib.sha256()
    if path.is_dir():
        for f in sorted(path.iterdir()):
            h.update(f.name.encode() + b"\0")
            with f.open("rb") as handle:
                for chunk in iter(lambda: handle.read(1 << 20), b""):
                    h.update(chunk)
            h.update(b"\0")
    return h.hexdigest()


def run_pass(cli, jobs: list[dict], tracer=None) -> tuple[list[int], list[str | None], dict | None]:
    """Run every job once.

    Returns each job's wall time in ns, each job's error (None if it
    succeeded) and, when traced, the pass's layer metrics.
    """
    for job in jobs:
        shutil.rmtree(job["out_dir"], ignore_errors=True)
    errors: list[str | None] = []
    job_ns: list[int] = []
    sink = io.StringIO()
    if tracer is not None:
        tracer.begin_pass()
    for index, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = index
        sink.seek(0)
        sink.truncate()
        start = time.perf_counter_ns()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = cli.main(job["argv"])
            errors.append(None if rc == 0 else f"exit code {rc}: {sink.getvalue()[-300:]}")
        except SystemExit as exc:
            errors.append(f"SystemExit({exc.code})")
        except Exception as exc:  # a job that raises is a failed job, not a failed benchmark
            errors.append(f"{type(exc).__name__}: {exc}")
        job_ns.append(time.perf_counter_ns() - start)
    metrics = tracer.end_pass(sum(job_ns)) if tracer is not None else None
    return job_ns, errors, metrics


def main(argv: list[str]) -> int:
    plan = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    seconds = float(argv[1])
    spans_path = Path(argv[3]) if len(argv) > 3 and argv[2] == "--trace" else None
    sys.path.insert(0, plan["src"])
    from protval import cli

    tracer = None
    if spans_path is not None:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    jobs = plan["jobs"]
    outs = [Path(j["out_dir"]) for j in jobs]
    _, warm_errors, _ = run_pass(cli, jobs)
    reference = [digest_dir(p) for p in outs]

    passes = []
    deadline = time.perf_counter() + seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        before = hostspeed.loop_seconds()
        usage = resource.getrusage(resource.RUSAGE_SELF)
        job_ns, errors, metrics = run_pass(cli, jobs, tracer)
        usage_after = resource.getrusage(resource.RUSAGE_SELF)
        after = hostspeed.loop_seconds()
        same = [digest_dir(p) == ref for p, ref in zip(outs, reference)]
        passes.append({"ns": sum(job_ns), "job_ns": job_ns, "loop_s": [before, after],
                       "user_s": usage_after.ru_utime - usage.ru_utime,
                       "sys_s": usage_after.ru_stime - usage.ru_stime,
                       "errors": errors, "same": same, "layers": metrics})

    result = {
        "warm_errors": warm_errors,
        "reference": reference,
        "passes": passes,
        "max_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["spans"] = tracer.write(spans_path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
