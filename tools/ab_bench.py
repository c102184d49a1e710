"""Run the benchmark in two checkouts as alternated pairs and compare their end-to-end metrics.

Usage:

    python3 tools/ab_bench.py PARENT CHANGE --workload value_paper --workload book_close --pairs 10 --seconds 30

For pair i (i = 1..pairs), seed s = first_seed + i - 1 (``--first-seed``,
default 1) and each workload W, it runs

    python3 bench/run.py --workload W --seed s --seconds S

in the PARENT checkout and in the CHANGE checkout, one process at a time.
PARENT runs first on odd pairs and CHANGE on even ones, whatever the seed,
so a drift in host load falls on both sides alike. Each run's end-to-end
metrics are printed as it finishes. If a run exits non-zero, reports
``correct: false`` or has ``failed > 0``, the script names the run and
exits 1. Before the first run it exits 1 with one ``error:`` line if
either checkout's ``src/`` holds a ``__pycache__``: bytecode left by an
earlier run spares that side alone the compile of each cold start. Every
child process it starts inherits its environment with
``PYTHONDONTWRITEBYTECODE=1``, so that a comparison leaves no such bytecode
for the next one. Also before the first run, it prints one ``warning:``
line to stderr if the two checkouts' paths differ in length:
``reports.bytes`` of ``book_close`` grows with the path, through the
absolute config path in each manifest, so that metric then differs between
the sides by construction.

At the end it prints, for each workload and each ``end_to_end`` metric of
``BENCHMARK.json``, the median and quartiles of each side over the pairs
and the number of pairs in which CHANGE read lower than PARENT:

    <workload> <metric> (<unit>): parent <median> [<q1>, <q3>]  change <median> [<q1>, <q3>]  change lower in <k> of <n>

Before each run it times the creation of ``PROBE_FILES`` small files in the
run's checkout and prints the median per file, so that file-system noise
can be read next to the metrics of a workload that writes many files. With ``--record PATH`` it also writes the whole
comparison as JSON to PATH: ``description``, ``parent_commit``, ``claim``,
``summary`` (per workload and metric: each side's median, quartiles and n,
the pairs where the change read lower and the relative change of the
medians), ``first_seed``, ``src_lines`` (lines of ``src/protval/*.py`` in
each checkout), ``module_lines`` (each checkout's lines per module, so a
simplification shows which modules shrank), ``checkout_path_chars`` (the
length of each checkout's resolved path) and ``runs`` (each run's metrics,
failures and probe time, in run order).

With ``--in-process JOB`` (a job name of ``bench/workloads.py``, such as
``value_book``) it also times that one job without the benchmark's worker,
cold starts and host-speed scaling. For round i (i = 1..pairs) it generates
the inputs of seed s with this checkout's ``bench/workloads.py`` in a new
temporary directory (``TMPDIR`` chooses where). Then, for each side in the
order of pair i, one subprocess imports that checkout's ``protval.cli.main``
and runs the job's argv ``IN_PROCESS_PASSES`` (15) times after a warm-up
pass, emptying the output directory before each. The round reads the
median pass. The line printed and the record's ``in_process`` entry give
each side's median and quartiles over the rounds and the rounds where
CHANGE read lower. These are wall times of this host, not a benchmark
metric, and the record says so.

With ``--aa`` and no CHANGE it compares PARENT with a copy of itself: an
A/A run, whose spread is the noise of identical code. The copy is made
without ``AA_SKIPPED`` (``.git``, bytecode and the benchmark's work
directory) in a new directory next to PARENT, so that both sides write to
one file system, and it is removed when the comparison ends. The copy's
path is longer than PARENT's, so the path-length warning above is printed,
and the record gains an ``aa`` entry that says so:

    python3 tools/ab_bench.py PARENT --aa --workload value_paper --pairs 10 --record BENCH_aa.json
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
PROBE_FILES = 50
NO_CLAIM = "none: no gain is claimed; every end-to-end metric must stay within its bound"
IN_PROCESS_LABEL = (
    "not a benchmark metric: median wall seconds of one job's passes through protval.cli.main, "
    "one subprocess per side and round, unscaled"
)
IN_PROCESS_METRIC = {"name": "pass_s", "unit": "s"}
# What --aa leaves out of its copy of PARENT: history, bytecode and earlier bench work.
AA_SKIPPED = (".git", "__pycache__", ".bench_work")
AA_LABEL = (
    "A/A: the change side is a copy of the parent checkout without .git, __pycache__ and .bench_work; "
    "its spread is noise, except reports.bytes on book_close, which grows with the copy's longer path"
)
# Timed passes per side and round of --in-process, after one warm-up pass.
IN_PROCESS_PASSES = 15
# A timing child: it puts the checkout's src/ and this file's directory first on
# its path, so it imports that checkout's protval and this file's child_main.
_CHILD = "import sys; sys.path[:0] = sys.argv[1:3]; import ab_bench; ab_bench.child_main(sys.argv[3:])"


def run_result(label: str, returncode: int, stdout: str) -> dict:
    """The result JSON on the last line of a run's stdout; ValueError naming ``label`` if the run is at fault."""
    if returncode != 0:
        raise ValueError(f"{label}: exit code {returncode}")
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise ValueError(f"{label}: no result line on stdout") from None
    if result.get("correct") is not True:
        raise ValueError(f"{label}: correct is {result.get('correct')!r}")
    if result.get("failed") != 0:
        raise ValueError(f"{label}: failed = {result.get('failed')!r} of {result.get('attempted')!r}")
    return result


def compare(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> dict[str, dict]:
    """Per metric, the parent and change results of ``pairs`` (at least two) side by side."""
    out = {}
    for metric in metrics:
        name = metric["name"]
        values = [[r["metrics"][name]["value"] for r in side] for side in zip(*pairs)]
        entry = {}
        for side, vals in zip(SIDES, values):
            q1, med, q3 = statistics.quantiles(vals, n=4)
            entry[side] = {"median": med, "q1": q1, "q3": q3, "n": len(vals)}
        entry["change_lower_pairs"] = f"{sum(c < p for p, c in zip(*values))}/{len(pairs)}"
        entry["median_change_rel"] = entry["change"]["median"] / entry["parent"]["median"] - 1.0
        out[name] = entry
    return out


def summary(workload: str, pairs: list[tuple[dict, dict]], metrics: list[dict]) -> list[str]:
    """One line per metric comparing the parent and change results of ``pairs`` (at least two)."""
    lines = []
    for metric, entry in zip(metrics, compare(pairs, metrics).values()):
        parts = [f"{side} {entry[side]['median']:.6g} [{entry[side]['q1']:.6g}, {entry[side]['q3']:.6g}]"
                 for side in SIDES]
        lower, n = entry["change_lower_pairs"].split("/")
        head = f"{workload} {metric['name']} ({metric['unit']})"
        lines.append(f"{head}: {'  '.join(parts)}  change lower in {lower} of {n}")
    return lines


def module_lines(checkout: Path) -> dict[str, int]:
    """Lines of each ``src/protval/*.py`` module in ``checkout`` by file name, as ``wc -l`` counts them."""
    return {path.name: path.read_bytes().count(b"\n") for path in sorted((checkout / "src" / "protval").glob("*.py"))}


def commit_of(checkout: Path) -> str:
    """The commit checked out in ``checkout``; a ValueError when git finds none."""
    proc = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"], capture_output=True, text=True)
    if proc.returncode != 0:
        raise ValueError(f"{checkout}: git finds no commit to record: {' '.join(proc.stderr.split())}")
    return proc.stdout.strip()


def probe_file_creation(directory: Path, files: int = PROBE_FILES) -> float:
    """Median microseconds to create, write and close one small file in a new directory under ``directory``."""
    times = []
    with tempfile.TemporaryDirectory(prefix=".ab_probe-", dir=directory) as scratch:
        for i in range(files):
            start = time.perf_counter()
            with open(Path(scratch) / f"{i}.csv", "w", encoding="utf-8") as handle:
                handle.write("scenario,pvfp\n0,1.0\n")
            times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e6


def record(
    description: str,
    claim: str,
    parent_commit: str,
    first_seed: int,
    modules: dict[str, dict[str, int]],
    path_chars: dict[str, int],
    pairs: dict[str, list[tuple[dict, dict]]],
    runs: list[dict],
    metrics: list[dict],
) -> dict:
    """The JSON record of a comparison; ``modules`` holds each side's ``module_lines``, ``path_chars`` the length
    of each side's checkout path and ``runs`` one entry per run."""
    return {
        "description": description,
        "parent_commit": parent_commit,
        "claim": claim,
        "first_seed": first_seed,
        "summary": {workload: compare(workload_pairs, metrics) for workload, workload_pairs in pairs.items()},
        "src_lines": {side: sum(lines.values()) for side, lines in modules.items()},
        "module_lines": modules,
        "checkout_path_chars": path_chars,
        "runs": runs,
    }


def in_process_record(job: str, pairs: list[tuple[dict, dict]], rounds: list[dict]) -> dict:
    """The record's ``in_process`` entry: the timing of ``job`` over alternated rounds, labelled as no benchmark metric."""
    return {
        "label": IN_PROCESS_LABEL,
        "job": job,
        "passes_per_round": IN_PROCESS_PASSES,
        "summary": compare(pairs, [IN_PROCESS_METRIC]),
        "rounds": rounds,
    }


def bench_job(name: str, seed: int, root: Path) -> dict:
    """The argv and output directory of job ``name``, its workload's inputs generated for ``seed`` under ``root``."""
    spec = importlib.util.spec_from_file_location("ab_bench_workloads", ROOT / "bench" / "workloads.py")
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # its dataclasses look up their module
    spec.loader.exec_module(workloads)
    for workload in workloads.WORKLOADS:
        for job in workloads.build(workload, seed, root / workload).jobs:
            if job.name == name:
                return {"argv": job.argv, "out_dir": str(job.out_dir)}
    raise ValueError(f"no workload of bench/workloads.py has a job named {name!r}")


def child_main(args: list[str]) -> None:
    """In a timing child: run a job's argv ``passes`` + 1 times; print its import path and the last ``passes`` times.

    ``args`` is [output directory, passes, JSON argv]. The output directory is
    emptied before each pass, outside the timed call.
    """
    out_dir, passes, argv = Path(args[0]), int(args[1]), json.loads(args[2])
    from protval.cli import main

    seconds = []
    with contextlib.redirect_stdout(io.StringIO()):
        for _ in range(passes + 1):
            shutil.rmtree(out_dir, ignore_errors=True)
            start = time.perf_counter()
            code = main(argv)
            seconds.append(time.perf_counter() - start)
            if code != 0:
                raise SystemExit(f"{' '.join(argv)} exited {code}")
    print(json.dumps({"protval": sys.modules["protval"].__file__, "pass_s": seconds[1:]}))


def _child_env() -> dict[str, str]:
    """This process's environment with bytecode writing off, for a child that imports a checkout's engine."""
    return {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}


def _time_job(checkout: Path, job: dict, passes: int, label: str) -> list[float]:
    """The pass times of ``job`` in a timing child on ``checkout``'s ``src/``; ValueError naming ``label`` on a fault."""
    src = checkout / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(src), str(ROOT / "tools"), job["out_dir"], str(passes),
         json.dumps(job["argv"])],
        cwd=checkout, capture_output=True, text=True, env=_child_env(),
    )
    if proc.returncode != 0:
        print(proc.stderr[-2000:], file=sys.stderr, end="")
        raise ValueError(f"{label}: exit code {proc.returncode}")
    answer = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(answer["protval"]).resolve().is_relative_to(src.resolve()):
        raise ValueError(f"{label}: imported protval from {answer['protval']}, not from {src}")
    return answer["pass_s"]


@contextlib.contextmanager
def aa_copy(parent: Path):
    """A copy of ``parent`` without ``AA_SKIPPED``, in a new directory next to it; removed on exit."""
    with tempfile.TemporaryDirectory(prefix=".ab_aa-", dir=parent.parent) as scratch:
        copy = Path(scratch) / parent.name
        shutil.copytree(parent, copy, symlinks=True, ignore=shutil.ignore_patterns(*AA_SKIPPED))
        yield copy


def _run(checkout: Path, workload: str, seed: int, seconds: float, label: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True, env=_child_env(),
    )
    try:
        return run_result(label, proc.returncode, proc.stdout)
    except ValueError:
        print(proc.stderr[-2000:], file=sys.stderr, end="")
        raise


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, nargs="?", help="checkout of the change; omitted with --aa")
    parser.add_argument("--aa", action="store_true", help="compare PARENT with a copy of itself")
    parser.add_argument("--workload", action="append", default=[], help="a workload of bench/run.py; repeatable")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1, help="seed of the first pair; pair i runs seed N+i-1")
    parser.add_argument("--in-process", metavar="JOB", default=None,
                        help="also time this job of bench/workloads.py in-process, one round per pair")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--record", type=Path, default=None, help="write the comparison as JSON to this file")
    parser.add_argument("--description", default="", help="the record's description")
    parser.add_argument("--claim", default=NO_CLAIM, help="the record's claim")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be >= 2")
    if args.aa == (args.change is not None):
        parser.error("give CHANGE, or --aa to compare PARENT with a copy of itself, not both")
    if not args.workload and args.in_process is None:
        parser.error("give at least one --workload, or --in-process")
    if args.in_process is not None:
        with tempfile.TemporaryDirectory(prefix="ab_in_process-") as scratch:
            try:
                bench_job(args.in_process, args.first_seed, Path(scratch))
            except ValueError as exc:
                parser.error(str(exc))

    parent = args.parent.resolve()
    if not args.aa:
        return compare_checkouts(args, parent, args.change.resolve())
    with aa_copy(parent) as copy:
        return compare_checkouts(args, parent, copy)


def compare_checkouts(args: argparse.Namespace, parent: Path, change: Path) -> int:
    """Run the comparison that ``main``'s ``args`` ask for between the checkouts ``parent`` and ``change``."""
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]

    checkouts = dict(zip(SIDES, (parent, change)))
    for checkout in checkouts.values():
        bytecode = next((checkout / "src").rglob("__pycache__"), None)
        if bytecode is not None:
            print(f"error: {bytecode}: bytecode in a checkout's src/ lowers its setup_s alone; remove it",
                  file=sys.stderr)
            return 1
    try:
        parent_commit = commit_of(checkouts["parent"]) if args.record is not None else ""
    except ValueError as exc:  # found now, not after the last run
        print(f"error: {exc}", file=sys.stderr)
        return 1
    path_chars = {side: len(str(checkout)) for side, checkout in checkouts.items()}
    if path_chars["parent"] != path_chars["change"]:
        print(f"warning: the checkouts' paths differ in length ({path_chars['parent']} and {path_chars['change']} "
              "characters), so reports.bytes differs between the sides by construction", file=sys.stderr)
    pairs: dict[str, list[tuple[dict, dict]]] = {w: [] for w in args.workload}
    runs = []
    timed: list[tuple[dict, dict]] = []
    rounds = []
    try:
        for pair in range(1, args.pairs + 1):
            seed = args.first_seed + pair - 1
            order = SIDES if pair % 2 else SIDES[::-1]
            for workload in args.workload:
                results = {}
                for side in order:
                    label = f"{side} {workload} seed {seed}"
                    probe_us = probe_file_creation(checkouts[side])
                    result = results[side] = _run(checkouts[side], workload, seed, args.seconds, label)
                    values = {m["name"]: result["metrics"][m["name"]]["value"] for m in metrics}
                    runs.append({
                        "side": side, "workload": workload, "seed": seed, "pair": pair, "metrics": values,
                        "failed": result["failed"], "attempted": result["attempted"],
                        "file_create_us": round(probe_us, 1),
                    })
                    shown = "  ".join(f"{name}={value:.6g}" for name, value in values.items())
                    print(f"{label}: {shown}  failed {result['failed']} of {result['attempted']}  "
                          f"file creation {probe_us:.0f} us", flush=True)
                pairs[workload].append((results["parent"], results["change"]))
            if args.in_process is not None:
                medians = {}
                with tempfile.TemporaryDirectory(prefix="ab_in_process-") as scratch:
                    job = bench_job(args.in_process, seed, Path(scratch))
                    for side in order:
                        label = f"{side} in-process {args.in_process} seed {seed}"
                        times = _time_job(checkouts[side], job, IN_PROCESS_PASSES, label)
                        medians[side] = {"metrics": {"pass_s": {"value": statistics.median(times)}}}
                        rounds.append({"side": side, "seed": seed, "round": pair, "pass_s": times})
                        print(f"{label}: median pass {medians[side]['metrics']['pass_s']['value']:.6g} s "
                              f"over {len(times)}", flush=True)
                timed.append((medians["parent"], medians["change"]))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for workload in args.workload:
        print("\n".join(summary(workload, pairs[workload], metrics)))
    if timed:
        print("\n".join(summary(f"in-process {args.in_process}", timed, [IN_PROCESS_METRIC]))
              + "  (not a benchmark metric)")
    if args.record is not None:
        modules = {side: module_lines(checkout) for side, checkout in checkouts.items()}
        payload = record(args.description, args.claim, parent_commit, args.first_seed, modules, path_chars, pairs, runs,
                         metrics)
        if timed:
            payload["in_process"] = in_process_record(args.in_process, timed, rounds)
        if args.aa:
            payload["aa"] = AA_LABEL
        args.record.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
