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
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


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


def summary(workload: str, pairs: list[tuple[dict, dict]], metrics: list[dict]) -> list[str]:
    """One line per metric comparing the parent and change results of ``pairs`` (at least two)."""
    lines = []
    for metric in metrics:
        name = metric["name"]
        values = [[r["metrics"][name]["value"] for r in side] for side in zip(*pairs)]
        parts = []
        for side, vals in zip(SIDES, values):
            q1, med, q3 = statistics.quantiles(vals, n=4)
            parts.append(f"{side} {med:.6g} [{q1:.6g}, {q3:.6g}]")
        lower = sum(c < p for p, c in zip(*values))
        lines.append(f"{workload} {name} ({metric['unit']}): {'  '.join(parts)}  change lower in {lower} of {len(pairs)}")
    return lines


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
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be >= 2")

    metrics = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]

    checkouts = dict(zip(SIDES, (args.parent.resolve(), args.change.resolve())))
    pairs: dict[str, list[tuple[dict, dict]]] = {w: [] for w in args.workload}
    try:
        for seed in range(1, args.pairs + 1):
            for workload in args.workload:
                order = SIDES if seed % 2 else SIDES[::-1]
                results = {}
                for side in order:
                    label = f"{side} {workload} seed {seed}"
                    result = results[side] = _run(checkouts[side], workload, seed, args.seconds, label)
                    values = "  ".join(f"{m['name']}={result['metrics'][m['name']]['value']:.6g}" for m in metrics)
                    print(f"{label}: {values}  failed {result['failed']} of {result['attempted']}", flush=True)
                pairs[workload].append((results["parent"], results["change"]))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for workload in args.workload:
        print("\n".join(summary(workload, pairs[workload], metrics)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
