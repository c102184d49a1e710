"""tools/ab_bench.py: the check of each run's result line, the summary of alternated pairs, the seeds and run
order of the pairs, the warning on checkout paths of different length, the in-process timing of one job and the
JSON record."""

from __future__ import annotations

import importlib.util
import json
import subprocess
from pathlib import Path
from types import SimpleNamespace

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


def test_compare_gives_each_side_and_the_relative_change_of_the_medians():
    pairs = [
        (ab_bench.run_result("p", 0, result_line(p)), ab_bench.run_result("c", 0, result_line(c)))
        for p, c in [(0.20, 0.15), (0.18, 0.16), (0.19, 0.17), (0.21, 0.22)]
    ]
    entry = ab_bench.compare(pairs, METRICS[:1])["pass_s"]
    assert entry["parent"] == {"median": pytest.approx(0.195), "q1": pytest.approx(0.1825),
                               "q3": pytest.approx(0.2075), "n": 4}
    assert entry["change"]["median"] == pytest.approx(0.165)
    assert entry["change_lower_pairs"] == "3/4"
    assert entry["median_change_rel"] == pytest.approx(0.165 / 0.195 - 1.0)


def test_module_lines_counts_newlines_of_each_package_module(tmp_path):
    package = tmp_path / "src" / "protval"
    package.mkdir(parents=True)
    (package / "b.py").write_text("x = 1\ny = 2\n", encoding="utf-8")
    (package / "a.py").write_text("z = 3", encoding="utf-8")
    (package / "notes.txt").write_text("\n" * 9, encoding="utf-8")
    assert list(ab_bench.module_lines(tmp_path).items()) == [("a.py", 0), ("b.py", 2)]


def test_file_creation_probe_leaves_nothing_behind(tmp_path):
    assert ab_bench.probe_file_creation(tmp_path, files=5) > 0.0
    assert list(tmp_path.iterdir()) == []


def test_main_writes_the_record(tmp_path, monkeypatch, capsys):
    """Two pairs of one workload, with the runs stubbed: the record holds every field, and one run per side and pair."""
    checkouts = {}
    for side in ab_bench.SIDES:
        package = tmp_path / side / "src" / "protval"
        package.mkdir(parents=True)
        (package / "m.py").write_text("\n" * (10 if side == "parent" else 7), encoding="utf-8")
        (package / "n.py").write_text("\n" * 3, encoding="utf-8")
        checkouts[side] = tmp_path / side
    times = {("parent", 1): 0.20, ("change", 1): 0.15, ("parent", 2): 0.18, ("change", 2): 0.16}

    def run(checkout, workload, seed, seconds, label):
        side = checkout.name
        stdout = json.dumps({
            "correct": True, "attempted": 7, "failed": 0,
            "metrics": {m["name"]: {"value": times[side, seed], "unit": m["unit"]}
                        for m in json.loads((ab_bench.ROOT / "BENCHMARK.json").read_text())["end_to_end"]},
        })
        return ab_bench.run_result(label, 0, stdout)

    monkeypatch.setattr(ab_bench, "_run", run)
    monkeypatch.setattr(ab_bench, "commit_of", lambda checkout: f"commit-of-{checkout.name}")
    out = tmp_path / "BENCH.json"
    argv = [str(checkouts["parent"]), str(checkouts["change"]), "--workload", "book_close", "--pairs", "2",
            "--seconds", "1", "--record", str(out), "--description", "a test", "--claim", "book_close pass_s"]
    assert ab_bench.main(argv) == 0
    expected = "book_close pass_s (s): parent 0.19 [0.175, 0.205]  change 0.155 [0.1475, 0.1625]  change lower in 2 of 2"
    assert expected in capsys.readouterr().out
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert list(payload) == [
        "description", "parent_commit", "claim", "first_seed", "summary", "src_lines", "module_lines",
        "checkout_path_chars", "runs",
    ]
    assert (payload["description"], payload["claim"], payload["first_seed"]) == ("a test", "book_close pass_s", 1)
    assert payload["parent_commit"] == "commit-of-parent"
    assert payload["src_lines"] == {"parent": 13, "change": 10}
    assert payload["module_lines"] == {"parent": {"m.py": 10, "n.py": 3}, "change": {"m.py": 7, "n.py": 3}}
    assert payload["checkout_path_chars"] == {side: len(str(checkouts[side].resolve())) for side in ab_bench.SIDES}
    assert payload["summary"]["book_close"]["pass_s"]["change_lower_pairs"] == "2/2"
    assert [(r["side"], r["seed"], r["metrics"]["pass_s"]) for r in payload["runs"]] == [
        ("parent", 1, 0.20), ("change", 1, 0.15), ("change", 2, 0.16), ("parent", 2, 0.18),
    ]
    assert all(r["file_create_us"] > 0.0 and (r["failed"], r["attempted"]) == (0, 7) for r in payload["runs"])


def make_checkouts(tmp_path) -> dict:
    """A parent and a change directory, each holding an empty ``src/protval``."""
    for side in ab_bench.SIDES:
        (tmp_path / side / "src" / "protval").mkdir(parents=True)
    return {side: tmp_path / side for side in ab_bench.SIDES}


def stub_run(calls: list):
    """A ``_run`` that records (side, workload, seed) and reads the seed as every metric."""
    metrics = json.loads((ab_bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]

    def run(checkout, workload, seed, seconds, label):
        calls.append((checkout.name, workload, seed))
        stdout = json.dumps({"correct": True, "attempted": 1, "failed": 0,
                             "metrics": {m["name"]: {"value": float(seed), "unit": m["unit"]} for m in metrics}})
        return ab_bench.run_result(label, 0, stdout)

    return run


def test_parent_with_no_commit_is_refused_before_any_run(tmp_path, monkeypatch, capsys):
    """With ``--record``, a parent that is no git checkout ends the comparison at once, not after every run."""
    checkouts = make_checkouts(tmp_path)
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
    calls = []
    monkeypatch.setattr(ab_bench, "_run", stub_run(calls))
    out = tmp_path / "BENCH.json"
    argv = [str(checkouts["parent"]), str(checkouts["change"]), "--workload", "book_close", "--pairs", "2",
            "--record", str(out)]
    assert ab_bench.main(argv) == 1
    assert calls == [] and not out.exists()
    err = capsys.readouterr().err
    assert err.startswith(f"error: {checkouts['parent'].resolve()}: git finds no commit to record: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("record", [False, True])
@pytest.mark.parametrize("side", ab_bench.SIDES)
def test_bytecode_in_either_src_is_refused_before_any_run(tmp_path, monkeypatch, capsys, side, record):
    """A ``__pycache__`` under one side's ``src/`` ends the comparison before any bench run or timing child."""
    checkouts = make_checkouts(tmp_path)
    bytecode = checkouts[side] / "src" / "protval" / "__pycache__"
    bytecode.mkdir()
    calls = []
    monkeypatch.setattr(ab_bench, "_run", stub_run(calls))
    monkeypatch.setattr(ab_bench, "_time_job", lambda *args: calls.append(args) or [0.1])
    monkeypatch.setattr(ab_bench, "commit_of", lambda checkout: "c")
    out = tmp_path / "BENCH.json"
    argv = [str(checkouts["parent"]), str(checkouts["change"]), "--workload", "book_close",
            "--in-process", "value_book", "--pairs", "2"] + (["--record", str(out)] if record else [])
    assert ab_bench.main(argv) == 1
    assert calls == [] and not out.exists()
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bytecode.resolve()}: ") and err.count("\n") == 1


def test_recorded_parent_commit_is_resolved_once_before_the_first_run(tmp_path, monkeypatch):
    checkouts = make_checkouts(tmp_path)
    events = []
    monkeypatch.setattr(ab_bench, "_run", stub_run(events))
    monkeypatch.setattr(ab_bench, "commit_of", lambda checkout: events.append(("commit", checkout.name)) or "c0ffee")
    out = tmp_path / "BENCH.json"
    argv = [str(checkouts["parent"]), str(checkouts["change"]), "--workload", "book_close", "--pairs", "2",
            "--record", str(out)]
    assert ab_bench.main(argv) == 0
    assert events[0] == ("commit", "parent") and len(events) == 1 + 2 * 2
    assert json.loads(out.read_text(encoding="utf-8"))["parent_commit"] == "c0ffee"


def test_parent_with_no_commit_is_compared_when_nothing_is_recorded(tmp_path, monkeypatch):
    """Only ``--record`` needs the parent's commit; without it a plain directory is compared as usual."""
    checkouts = make_checkouts(tmp_path)
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
    calls = []
    monkeypatch.setattr(ab_bench, "_run", stub_run(calls))
    argv = [str(checkouts["parent"]), str(checkouts["change"]), "--workload", "book_close", "--pairs", "2"]
    assert ab_bench.main(argv) == 0
    assert calls == [("parent", "book_close", 1), ("change", "book_close", 1),
                     ("change", "book_close", 2), ("parent", "book_close", 2)]


@pytest.mark.parametrize(("change_name", "warned"), [("change", False), ("change_at_a_longer_path", True)])
def test_checkout_paths_of_different_length_are_warned_of_before_the_first_run_and_recorded(
    tmp_path, monkeypatch, capsys, change_name, warned
):
    """A warning, not a refusal: ``--aa``'s copy always sits at a longer path than its parent."""
    checkouts = {"parent": tmp_path / "parent", "change": tmp_path / change_name}
    for checkout in checkouts.values():
        (checkout / "src" / "protval").mkdir(parents=True)
    chars = {side: len(str(checkout.resolve())) for side, checkout in checkouts.items()}
    stderr_before_each_run = []
    stubbed = stub_run([])

    def run(*args):
        stderr_before_each_run.append(capsys.readouterr().err)
        return stubbed(*args)

    monkeypatch.setattr(ab_bench, "_run", run)
    monkeypatch.setattr(ab_bench, "commit_of", lambda checkout: "c")
    out = tmp_path / "BENCH.json"
    argv = [str(checkouts["parent"]), str(checkouts["change"]), "--workload", "book_close", "--pairs", "2",
            "--record", str(out)]
    assert ab_bench.main(argv) == 0
    warning = (f"warning: the checkouts' paths differ in length ({chars['parent']} and {chars['change']} characters), "
               "so reports.bytes differs between the sides by construction\n")
    assert stderr_before_each_run == [warning if warned else ""] + [""] * 3
    assert capsys.readouterr().err == ""
    assert json.loads(out.read_text(encoding="utf-8"))["checkout_path_chars"] == chars


def test_first_seed_sets_the_seeds_and_the_pair_index_sets_the_run_order(tmp_path, monkeypatch):
    """Pairs 1..3 run seeds 102..104; the parent goes first on odd pairs, though seed 102 is even."""
    checkouts = make_checkouts(tmp_path)
    calls = []
    monkeypatch.setattr(ab_bench, "_run", stub_run(calls))
    monkeypatch.setattr(ab_bench, "commit_of", lambda checkout: "c")
    out = tmp_path / "BENCH.json"
    argv = [str(checkouts["parent"]), str(checkouts["change"]), "--workload", "value_paper", "--workload",
            "book_close", "--pairs", "3", "--first-seed", "102", "--record", str(out)]
    assert ab_bench.main(argv) == 0
    assert calls == [
        ("parent", "value_paper", 102), ("change", "value_paper", 102),
        ("parent", "book_close", 102), ("change", "book_close", 102),
        ("change", "value_paper", 103), ("parent", "value_paper", 103),
        ("change", "book_close", 103), ("parent", "book_close", 103),
        ("parent", "value_paper", 104), ("change", "value_paper", 104),
        ("parent", "book_close", 104), ("change", "book_close", 104),
    ]
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["first_seed"] == 102
    assert [(r["side"], r["workload"], r["seed"]) for r in payload["runs"]] == calls
    assert [r["pair"] for r in payload["runs"]] == [1] * 4 + [2] * 4 + [3] * 4
    assert "in_process" not in payload


def test_in_process_rounds_alternate_and_are_recorded_as_no_benchmark_metric(tmp_path, monkeypatch, capsys):
    """Three rounds of value_book with the timing child stubbed: each round has fresh inputs of its seed."""
    checkouts = make_checkouts(tmp_path)
    calls = []
    times = {"parent": [0.20, 0.22, 0.21], "change": [0.19, 0.18, 0.23]}

    def time_job(checkout, job, passes, label):
        seed = int(label.rsplit(" ", 1)[1])
        assert Path(job["argv"][2]).is_file() and job["argv"][0] == "value"
        calls.append((checkout.name, seed, passes, job["argv"][2]))
        return [times[checkout.name][seed - 7]] * passes

    monkeypatch.setattr(ab_bench, "_time_job", time_job)
    monkeypatch.setattr(ab_bench, "commit_of", lambda checkout: "c")
    out = tmp_path / "BENCH.json"
    argv = [str(checkouts["parent"]), str(checkouts["change"]), "--in-process", "value_book", "--pairs", "3",
            "--first-seed", "7", "--record", str(out)]
    assert ab_bench.main(argv) == 0
    assert [(side, seed, passes) for side, seed, passes, _ in calls] == [
        ("parent", 7, 15), ("change", 7, 15), ("change", 8, 15), ("parent", 8, 15), ("parent", 9, 15), ("change", 9, 15),
    ]
    assert calls[0][3] == calls[1][3] != calls[2][3], "both sides of a round read one input set; rounds differ"
    stdout = capsys.readouterr().out
    assert ("in-process value_book pass_s (s): parent 0.21 [0.2, 0.22]  change 0.19 [0.18, 0.23]  "
            "change lower in 2 of 3  (not a benchmark metric)") in stdout
    entry = json.loads(out.read_text(encoding="utf-8"))["in_process"]
    assert entry["label"].startswith("not a benchmark metric: ")
    assert (entry["job"], entry["passes_per_round"]) == ("value_book", 15)
    assert entry["summary"]["pass_s"]["change_lower_pairs"] == "2/3"
    assert entry["summary"]["pass_s"]["parent"]["median"] == pytest.approx(0.21)
    assert [(r["side"], r["seed"], r["round"], r["pass_s"]) for r in entry["rounds"]] == [
        ("parent", 7, 1, [0.20] * 15), ("change", 7, 1, [0.19] * 15), ("change", 8, 2, [0.18] * 15),
        ("parent", 8, 2, [0.22] * 15), ("parent", 9, 3, [0.21] * 15), ("change", 9, 3, [0.23] * 15),
    ]


def test_timing_child_runs_the_job_on_the_checkouts_own_engine(tmp_path):
    job = ab_bench.bench_job("calibrate", 1, tmp_path)
    times = ab_bench._time_job(ab_bench.ROOT, job, 2, "this calibrate seed 1")
    assert len(times) == 2 and all(t > 0.0 for t in times)
    assert (Path(job["out_dir"]) / "spread_function.json").is_file()


def test_timing_child_that_imports_another_engine_is_named(tmp_path, monkeypatch):
    """A checkout with no engine of its own: the child imports the one on PYTHONPATH, and the run is refused."""
    job = ab_bench.bench_job("calibrate", 1, tmp_path / "inputs")
    (tmp_path / "empty" / "src").mkdir(parents=True)
    monkeypatch.setenv("PYTHONPATH", str(ab_bench.ROOT / "src"))
    with pytest.raises(ValueError, match="^elsewhere: imported protval from .*, not from "):
        ab_bench._time_job(tmp_path / "empty", job, 1, "elsewhere")


def test_every_child_inherits_the_environment_with_bytecode_writing_off(tmp_path, monkeypatch):
    """The benchmark run and the timing child: bytecode either wrote under ``src/`` would refuse the next comparison."""
    calls = []

    def run(argv, **kwargs):
        calls.append(kwargs)
        if "bench/run.py" in argv:
            return subprocess.CompletedProcess(argv, 0, result_line(0.05) + "\n", "")
        answer = {"protval": str(tmp_path / "src" / "protval" / "__init__.py"), "pass_s": [0.1]}
        return subprocess.CompletedProcess(argv, 0, json.dumps(answer) + "\n", "")

    monkeypatch.setattr(ab_bench, "subprocess", SimpleNamespace(run=run))
    monkeypatch.setenv("AB_BENCH_INHERITED", "kept")
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    ab_bench._run(tmp_path, "value_paper", 1, 1.0, "parent value_paper seed 1")
    ab_bench._time_job(tmp_path, {"argv": [], "out_dir": str(tmp_path / "out")}, 1, "parent calibrate seed 1")
    assert len(calls) == 2
    for kwargs in calls:
        assert kwargs["env"]["PYTHONDONTWRITEBYTECODE"] == "1"
        assert kwargs["env"]["AB_BENCH_INHERITED"] == "kept"


def test_unknown_in_process_job_is_rejected_before_any_run(tmp_path, monkeypatch, capsys):
    checkouts = make_checkouts(tmp_path)
    monkeypatch.setattr(ab_bench, "_run", lambda *args: pytest.fail("a run started"))
    with pytest.raises(SystemExit) as exited:
        ab_bench.main([str(checkouts["parent"]), str(checkouts["change"]), "--workload", "book_close",
                       "--in-process", "value_everything"])
    assert exited.value.code == 2
    assert "no workload of bench/workloads.py has a job named 'value_everything'" in capsys.readouterr().err


def tree_files(root: Path) -> dict[str, bytes]:
    """Every file under ``root`` by its path relative to ``root``, with its bytes."""
    return {path.relative_to(root).as_posix(): path.read_bytes() for path in root.rglob("*") if path.is_file()}


def test_aa_runs_the_parent_against_a_copy_of_its_files_and_removes_the_copy(tmp_path, monkeypatch, capsys):
    """``--aa`` with ``subprocess.run`` stubbed: the copy holds the parent's files but ``.git``, bytecode and bench work."""
    parent = tmp_path / "parent"
    (parent / "src" / "protval").mkdir(parents=True)
    (parent / "src" / "protval" / "cli.py").write_text("x = 1\n", encoding="utf-8")
    (parent / "bench").mkdir()
    (parent / "bench" / "run.py").write_bytes(b"# run\n\x00\xff")
    (parent / "tools" / "__pycache__").mkdir(parents=True)
    (parent / "tools" / "__pycache__" / "ab_bench.cpython-311.pyc").write_bytes(b"bytecode")
    (parent / ".git").mkdir()
    (parent / ".git" / "HEAD").write_text("ref: refs/heads/main\n", encoding="utf-8")
    (parent / ".bench_work" / "value_paper").mkdir(parents=True)
    (parent / ".bench_work" / "value_paper" / "inputs.json").write_text("{}\n", encoding="utf-8")
    metrics = json.loads((ab_bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    stdout = json.dumps({"correct": True, "attempted": 1, "failed": 0,
                         "metrics": {m["name"]: {"value": 0.05, "unit": m["unit"]} for m in metrics}})
    runs = []

    def run(argv, **kwargs):
        runs.append((Path(kwargs["cwd"]), tree_files(Path(kwargs["cwd"]))))
        return subprocess.CompletedProcess(argv, 0, stdout + "\n", "")

    monkeypatch.setattr(ab_bench, "subprocess", SimpleNamespace(run=run))
    monkeypatch.setattr(ab_bench, "commit_of", lambda checkout: "c")
    out = tmp_path / "BENCH.json"
    assert ab_bench.main([str(parent), "--aa", "--workload", "value_paper", "--pairs", "2", "--record", str(out)]) == 0
    assert len(runs) == 4
    sides = [cwd for cwd, _ in runs]
    copy = sides[1]
    assert sides == [parent, copy, copy, parent] and copy != parent and copy.name == parent.name
    assert copy.parent.parent == tmp_path, "the copy is made next to the parent, on its file system"
    expected = {name: data for name, data in tree_files(parent).items() if name.split("/")[0] in ("src", "bench")}
    assert len(expected) == 2 and all(files == expected for cwd, files in runs if cwd == copy)
    assert not copy.parent.exists()
    assert sorted(path.name for path in tmp_path.iterdir()) == ["BENCH.json", "parent"]
    assert json.loads(out.read_text(encoding="utf-8"))["aa"] == ab_bench.AA_LABEL
    captured = capsys.readouterr()
    assert "value_paper pass_s (s): parent 0.05 [0.05, 0.05]  change 0.05 [0.05, 0.05]" in captured.out
    assert captured.err.startswith("warning: the checkouts' paths differ in length (")


def test_aa_copy_is_removed_when_a_run_fails(tmp_path, monkeypatch):
    parent = tmp_path / "parent"
    (parent / "src").mkdir(parents=True)
    monkeypatch.setattr(ab_bench, "subprocess", SimpleNamespace(
        run=lambda argv, **kwargs: subprocess.CompletedProcess(argv, 3, "", "boom")))
    assert ab_bench.main([str(parent), "--aa", "--workload", "value_paper", "--pairs", "2"]) == 1
    assert [path.name for path in tmp_path.iterdir()] == ["parent"]


@pytest.mark.parametrize("aa", [False, True])
def test_a_change_checkout_is_given_exactly_when_aa_is_not(tmp_path, monkeypatch, capsys, aa):
    checkouts = make_checkouts(tmp_path)
    monkeypatch.setattr(ab_bench, "_run", lambda *args: pytest.fail("a run started"))
    argv = [str(checkouts["parent"]), str(checkouts["change"]), "--aa"] if aa else [str(checkouts["parent"])]
    with pytest.raises(SystemExit) as exited:
        ab_bench.main(argv + ["--workload", "book_close"])
    assert exited.value.code == 2
    assert "give CHANGE, or --aa to compare PARENT with a copy of itself, not both" in capsys.readouterr().err
