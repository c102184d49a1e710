"""Run the benchmark in two checkouts as alternated pairs and compare their end-to-end metrics.

Usage:

    python3 tools/ab_bench.py PARENT CHANGE --workload value_paper --workload book_close --pairs 10 --seconds 30

For pair i (i = 1..pairs) and each workload W, it runs

    python3 bench/run.py --workload W --seed i --seconds S

in the PARENT checkout and in the CHANGE checkout, one process at a time.
PARENT runs first on odd pairs and CHANGE on even ones, so a drift in host
load falls on both sides alike. Each run's end-to-end metrics are printed as
it finishes. If a run exits non-zero, reports ``correct: false`` or has
``failed > 0``, the script names the run and exits 1.

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
medians), ``src_lines`` (lines of ``src/protval/*.py`` in each checkout)
and ``runs`` (each run's metrics, failures and probe time, in run order).
"""

from __future__ import annotations

import argparse
import json
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


def src_lines(checkout: Path) -> int:
    """Lines of ``src/protval/*.py`` in ``checkout``, as ``wc -l`` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in (checkout / "src" / "protval").glob("*.py"))


def commit_of(checkout: Path) -> str:
    """The commit checked out in ``checkout``."""
    return subprocess.run(
        ["git", "-C", str(checkout), "rev-parse", "HEAD"], capture_output=True, text=True, check=True
    ).stdout.strip()


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
    lines: dict[str, int],
    pairs: dict[str, list[tuple[dict, dict]]],
    runs: list[dict],
    metrics: list[dict],
) -> dict:
    """The JSON record of a comparison; ``runs`` holds one entry per run, in run order."""
    return {
        "description": description,
        "parent_commit": parent_commit,
        "claim": claim,
        "summary": {workload: compare(workload_pairs, metrics) for workload, workload_pairs in pairs.items()},
        "src_lines": lines,
        "runs": runs,
    }


def _run(checkout: Path, workload: str, seed: int, seconds: float, label: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True,
    )
    try:
        return run_result(label, proc.returncode, proc.stdout)
    except ValueError:
        print(proc.stderr[-2000:], file=sys.stderr, end="")
        raise


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", action="append", required=True, help="a workload of bench/run.py; repeatable")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--record", type=Path, default=None, help="write the comparison as JSON to this file")
    parser.add_argument("--description", default="", help="the record's description")
    parser.add_argument("--claim", default=NO_CLAIM, help="the record's claim")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be >= 2")

    metrics = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]

    checkouts = dict(zip(SIDES, (args.parent.resolve(), args.change.resolve())))
    pairs: dict[str, list[tuple[dict, dict]]] = {w: [] for w in args.workload}
    runs = []
    try:
        for seed in range(1, args.pairs + 1):
            for workload in args.workload:
                order = SIDES if seed % 2 else SIDES[::-1]
                results = {}
                for side in order:
                    label = f"{side} {workload} seed {seed}"
                    probe_us = probe_file_creation(checkouts[side])
                    result = results[side] = _run(checkouts[side], workload, seed, args.seconds, label)
                    values = {m["name"]: result["metrics"][m["name"]]["value"] for m in metrics}
                    runs.append({
                        "side": side, "workload": workload, "seed": seed, "pair": seed, "metrics": values,
                        "failed": result["failed"], "attempted": result["attempted"],
                        "file_create_us": round(probe_us, 1),
                    })
                    shown = "  ".join(f"{name}={value:.6g}" for name, value in values.items())
                    print(f"{label}: {shown}  failed {result['failed']} of {result['attempted']}  "
                          f"file creation {probe_us:.0f} us", flush=True)
                pairs[workload].append((results["parent"], results["change"]))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for workload in args.workload:
        print("\n".join(summary(workload, pairs[workload], metrics)))
    if args.record is not None:
        lines = {side: src_lines(checkout) for side, checkout in checkouts.items()}
        payload = record(args.description, args.claim, commit_of(checkouts["parent"]), lines, pairs, runs, metrics)
        args.record.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
