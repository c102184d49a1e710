"""tools/ab_bench.py: the check of each run's result line and the summary of alternated pairs."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "ab_bench", Path(__file__).resolve().parents[1] / "tools" / "ab_bench.py"
)
ab_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_bench)

METRICS = [{"name": "pass_s", "unit": "s"}, {"name": "peak_rss_mib", "unit": "MiB"}]


def result_line(pass_s: float, peak_rss_mib: float = 80.0, correct: bool = True, failed: int = 0) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": 12,
        "failed": failed,
        "metrics": {"pass_s": {"value": pass_s, "unit": "s"}, "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"}},
    })


def test_result_is_the_last_stdout_line():
    stdout = "record {}\n" + result_line(0.05) + "\n"
    assert ab_bench.run_result("parent value_paper seed 1", 0, stdout)["metrics"]["pass_s"]["value"] == 0.05


@pytest.mark.parametrize(
    ("returncode", "stdout", "reason"),
    [
        (2, "", "exit code 2"),
        (0, "", "no result line on stdout"),
        (0, "record {}\n", "no result line on stdout"),
        (0, result_line(0.05, correct=False), "correct is False"),
        (0, result_line(0.05, failed=3), "failed = 3 of 12"),
    ],
    ids=["exit_code", "empty", "no_json", "incorrect", "failed"],
)
def test_a_run_at_fault_is_named(returncode, stdout, reason):
    with pytest.raises(ValueError) as exc:
        ab_bench.run_result("change book_close seed 4", returncode, stdout)
    assert str(exc.value) == f"change book_close seed 4: {reason}"


def test_summary_gives_medians_quartiles_and_pairs_where_the_change_read_lower():
    parent = [0.050, 0.052, 0.054, 0.056, 0.058]
    change = [0.051, 0.051, 0.055, 0.055, 0.060]
    pairs = [
        (ab_bench.run_result("p", 0, result_line(p, 80.0)), ab_bench.run_result("c", 0, result_line(c, 79.0 + i)))
        for i, (p, c) in enumerate(zip(parent, change))
    ]
    assert ab_bench.summary("value_paper", pairs, METRICS) == [
        "value_paper pass_s (s): parent 0.054 [0.051, 0.057]  change 0.055 [0.051, 0.0575]  change lower in 2 of 5",
        "value_paper peak_rss_mib (MiB): parent 80 [80, 80]  change 81 [79.5, 82.5]  change lower in 1 of 5",
    ]
