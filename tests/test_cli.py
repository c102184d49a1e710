"""Command-line driver: golden files, error contracts, determinism."""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from protval.cap import caplet_price
from protval.cli import main
from protval.config import load_curve, load_portfolio, load_run_config
from protval.loss import draw_initial_ratios, lognormal_mu
from protval.projection import pvfp, pvfp_of_ratios

from .conftest import (
    FIGURE_CAPLET_COSTS,
    FIGURE_TENORS,
    FIGURE_VOLS,
    FIGURE_ZERO_RATES,
)

SAMPLE_DIR = Path(__file__).resolve().parents[1] / "sample_inputs"
ROOT_DIR = Path(__file__).resolve().parents[1]
SRC_DIR = ROOT_DIR / "src"
_PATH_FIELDS = ("cap_spec", "weights", "replay_pvfp")
MODERATE_CRITERIA = {
    "portfolio_age_years": 3,
    "homogeneity": "moderate",
    "technical_bases_quality": "strong",
    "concentration": "moderate",
    "moral_hazard": "moderate",
    "litigation": "moderate",
}


def sample_config(name: str, tmp_path: Path, **patch) -> Path:
    """Copy a sample run config into tmp with absolute input paths."""
    data = json.loads((SAMPLE_DIR / name).read_text(encoding="utf-8"))
    market = data.get("market")
    if market:
        for key in ("curve_csv", "vols_csv"):
            if key in market:
                market[key] = str(SAMPLE_DIR / market[key])
    for key in _PATH_FIELDS:
        if key in data:
            data[key] = str(SAMPLE_DIR / data[key])
    if "portfolios" in data:
        data["portfolios"] = [str(SAMPLE_DIR / p) for p in data["portfolios"]]
    data["output_dir"] = str(tmp_path / "out")
    data.update(patch)
    config = tmp_path / name
    config.write_text(json.dumps(data, indent=2), encoding="utf-8")
    return config


def write_market_files(directory: Path) -> None:
    with (directory / "curve.csv").open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["tenor_years", "zero_rate"])
        writer.writerows(zip(FIGURE_TENORS, FIGURE_ZERO_RATES))
    with (directory / "vols.csv").open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["fixing_years", "black_vol"])
        writer.writerows(zip(FIGURE_TENORS, FIGURE_VOLS))


def write_json(path: Path, payload) -> Path:
    path.write_text(json.dumps(payload, indent=2), encoding="utf-8")
    return path


def make_portfolio_file(directory: Path, name: str = "p1", **overrides) -> Path:
    payload = {
        "id": name,
        "initial_premium": 1000.0,
        "renewal": {"mode": "tacit_renewal", "lapse_rate": 0.2},
        "profit_share_rate": 0.5,
        "tax_rate": 0.0,
        "retained_loss_ratio": 0.8,
        "sigma": 0.2,
        "reversion_speed": 0.8,
    }
    payload.update(overrides)
    payload = {k: v for k, v in payload.items() if v is not None}
    return write_json(directory / f"{name}.json", payload)


def read_report(path: Path) -> dict[str, list[str]]:
    with path.open(newline="") as fh:
        return {row[0]: row[1:] for row in csv.reader(fh)}


class TestPriceCap:
    def test_replay_reproduces_published_aggregates(self, tmp_path, capsys):
        config = sample_config("run_price_cap.json", tmp_path)
        assert main(["price-cap", "--config", str(config)]) == 0
        out = capsys.readouterr().out
        assert "-4,142.12" in out
        report = read_report(tmp_path / "out" / "cap_report.csv")
        assert float(report["stochastic_value"][0]) == pytest.approx(-6671.48, abs=0.01)
        assert float(report["crd"][0]) == pytest.approx(-4142.12, abs=0.01)
        costs = [float(v) for v in report["caplet_cost"]]
        assert costs == pytest.approx(list(FIGURE_CAPLET_COSTS), abs=1e-9)

    def test_live_pricing_with_zero_vols_has_no_spread(self, tmp_path):
        write_market_files(tmp_path)
        with (tmp_path / "vols.csv").open("w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["fixing_years", "black_vol"])
            writer.writerows([(0.0, 0.0), (6.0, 0.0)])
        write_json(tmp_path / "cap.json", {
            "strike": 0.019,
            "index_tenor_years": 3,
            "notionals": [1000000.0, 800000.0, 600000.0],
        })
        config = write_json(tmp_path / "run.json", {
            "market": {"curve_csv": "curve.csv", "vols_csv": "vols.csv", "tax_rate": 0.275},
            "cap_spec": "cap.json",
            "output_dir": "out",
        })
        assert main(["price-cap", "--config", str(config)]) == 0
        report = read_report(tmp_path / "out" / "cap_report.csv")
        assert float(report["valuation_spread"][0]) == 0.0
        assert float(report["stochastic_value"][0]) == float(report["deterministic_value"][0])

    def test_missing_vol_file_fails_with_config_error(self, tmp_path, capsys):
        write_market_files(tmp_path)
        (tmp_path / "vols.csv").unlink()
        write_json(tmp_path / "cap.json", {
            "strike": 0.019, "index_tenor_years": 3, "notionals": [1.0, 1.0],
        })
        config = write_json(tmp_path / "run.json", {
            "market": {"curve_csv": "curve.csv", "vols_csv": "vols.csv"},
            "cap_spec": "cap.json",
            "output_dir": "out",
        })
        assert main(["price-cap", "--config", str(config)]) == 1
        assert "vols.csv" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spec_patch",
        [
            {},
            {"use_spot_for_first_period": False},
            {"strikes": [0.019, 0.021, 0.015, 0.019, 0.03, 0.0185, 0.019]},
        ],
        ids=["sample_spec", "curve_forward_for_period_0", "spot_and_per_period_strikes"],
    )
    def test_report_rows_reprice_the_caplet_costs(self, tmp_path, spec_patch):
        spec = json.loads((SAMPLE_DIR / "cap_remuneration.json").read_text(encoding="utf-8"))
        del spec["replay"]
        spec.update(spec_patch)
        config = sample_config(
            "run_price_cap.json", tmp_path, cap_spec=str(write_json(tmp_path / "cap.json", spec))
        )
        assert main(["price-cap", "--config", str(config)]) == 0

        report = read_report(tmp_path / "out" / "cap_report.csv")
        rows = {name: [float(v) for v in values] for name, values in report.items() if name != "metric"}
        inputs = zip(*(rows[k] for k in ("notional", "discount_factor", "forward_rate", "strike", "volatility")))
        accrual = spec["accrual_years"]
        repriced = [
            caplet_price(n, df, fwd, k, vol, max(j * accrual - accrual, 0.0), accrual)
            for j, (n, df, fwd, k, vol) in enumerate(inputs)
        ]
        assert repriced == [-c for c in rows["caplet_cost"]]
        assert rows["strike"] == spec.get("strikes", [spec["strike"]] * len(spec["notionals"]))
        assert (rows["forward_rate"][0] == 0.0195) == spec["use_spot_for_first_period"]

    def test_forward_below_zero_names_the_curve_and_the_period(self, tmp_path, capsys):
        (tmp_path / "curve.csv").write_text("tenor_years,zero_rate\n0,-0.5\n10,-0.5\n", encoding="utf-8")
        (tmp_path / "vols.csv").write_text("fixing_years,black_vol\n0,0.2\n10,0.2\n", encoding="utf-8")
        write_json(tmp_path / "cap.json", {"strike": 0.02, "index_tenor_years": 1, "notionals": [1.0, 1.0, 1.0]})
        config = write_json(tmp_path / "run.json", {
            "market": {"curve_csv": "curve.csv", "vols_csv": "vols.csv"},
            "cap_spec": "cap.json",
            "output_dir": "out",
        })
        assert main(["price-cap", "--config", str(config)]) == 1
        # period 1 fixes at t = 0 and is priced at intrinsic value; period 2 is the first with a vol
        curve = (tmp_path / "curve.csv").resolve()
        assert capsys.readouterr().err == f"error: {curve}: period 2: forward must be > 0 when vol > 0, got -0.5\n"
        assert not (tmp_path / "out").exists()

    def test_manifest_records_the_run(self, tmp_path):
        config = sample_config("run_price_cap.json", tmp_path)
        assert main(["price-cap", "--config", str(config)]) == 0
        manifest = json.loads((tmp_path / "out" / "price-cap_manifest.json").read_text())
        assert manifest["command"] == "price-cap"
        assert len(manifest["config_sha256"]) == 64
        assert "engine_version" in manifest


class TestSimulate:
    @staticmethod
    def simulate_config(directory: Path, **extra) -> Path:
        make_portfolio_file(directory)
        payload = {
            "portfolios": ["p1.json"],
            "scenarios": 400,
            "seed": 7,
            "horizon": 8,
            "output_dir": "out",
        }
        payload.update(extra)
        return write_json(directory / "run.json", payload)

    def test_emits_scenarios_fan_and_histogram(self, tmp_path):
        config = self.simulate_config(tmp_path)
        assert main(["simulate", "--config", str(config)]) == 0
        out = tmp_path / "out"
        with (out / "p1_scenarios.csv").open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["scenario"] + [f"year_{t}" for t in range(1, 9)]
        assert len(rows) == 401

        with (out / "p1_histogram.csv").open(newline="") as fh:
            hist = list(csv.DictReader(fh))
        assert sum(int(r["count"]) for r in hist) == 400

    def test_fan_chart_contracts_at_the_reversion_speed(self, tmp_path):
        config = self.simulate_config(tmp_path)
        assert main(["simulate", "--config", str(config)]) == 0
        with (tmp_path / "out" / "p1_fan_chart.csv").open(newline="") as fh:
            fan = list(csv.DictReader(fh))
        spans = [float(r["q99"]) - float(r["q01"]) for r in fan]
        for t in range(len(spans) - 1):
            assert spans[t + 1] / spans[t] == pytest.approx(0.8, rel=1e-9)

    def test_byte_identical_across_worker_counts(self, tmp_path):
        digests = []
        for workers in (1, 4):
            config = self.simulate_config(tmp_path, output_dir=f"out_{workers}")
            assert main(["simulate", "--config", str(config), "--workers", str(workers)]) == 0
            files = sorted((tmp_path / f"out_{workers}").glob("p1_*.csv"))
            digests.append([f.read_bytes() for f in files])
        assert digests[0] == digests[1]

    def test_flag_conflicting_with_config_is_rejected(self, tmp_path, capsys):
        config = self.simulate_config(tmp_path)
        assert main(["simulate", "--config", str(config), "--seed", "8"]) == 1
        err = capsys.readouterr().err
        assert "conflicts" in err
        # matching values and config-omitted values are fine
        assert main(["simulate", "--config", str(config), "--seed", "7"]) == 0
        assert main(["simulate", "--config", str(config), "--workers", "2"]) == 0

    def test_workers_below_one_is_rejected(self, tmp_path, capsys):
        config = self.simulate_config(tmp_path)
        assert main(["simulate", "--config", str(config), "--workers", "0"]) == 1
        assert capsys.readouterr().err.startswith("error: --workers must be >= 1, got 0")

    def test_scored_portfolio_requires_weights(self, tmp_path, capsys):
        config = self.simulate_config(tmp_path)
        make_portfolio_file(tmp_path, sigma=None, criteria=MODERATE_CRITERIA)
        assert main(["simulate", "--config", str(config)]) == 1
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'p1.json'}: field 'criteria' needs a weight matrix, "
            "and the run config names no 'weights'\n"
        )

        config = self.simulate_config(
            tmp_path, weights=str(SAMPLE_DIR / "weights_illustrative.json")
        )
        make_portfolio_file(tmp_path, sigma=None, criteria=MODERATE_CRITERIA)
        assert main(["simulate", "--config", str(config)]) == 0


def set_usable_cores(monkeypatch, count: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


@pytest.fixture
def forks(monkeypatch) -> list[int]:
    """Records one entry per ``os.fork`` call made in this process."""
    calls = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: calls.append(1) or fork())
    return calls


def no_child_is_left() -> bool:
    """True when this process has no child, running or waiting to be reaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def run_on_two_cores(command: str, config: Path, patch: str = "") -> subprocess.CompletedProcess:
    """``command`` in a fresh interpreter that sees two usable cores, after running ``patch``.

    The interpreter exits with ``main``'s code, or with an error if ``main`` left a child unreaped.
    """
    code = (
        "import os, sys\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "from protval import cli, reports\n"
        f"{patch}\n"
        "code = cli.main(sys.argv[1:])\n"
        "try:\n"
        "    os.waitpid(-1, os.WNOHANG)\n"
        "except ChildProcessError:\n"
        "    sys.exit(code)\n"
        "sys.exit('a child process was left unreaped')\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC_DIR), os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, "-c", code, command, "--config", str(config)],
        capture_output=True, text=True, env=env, timeout=60,
    )


class TestSimulateProcesses:
    """``simulate`` forks one process per chunk of portfolios, up to the usable cores."""

    @staticmethod
    def two_portfolio_config(directory: Path) -> Path:
        make_portfolio_file(directory, "p1")
        make_portfolio_file(directory, "p2", sigma=0.3)
        return write_json(directory / "run.json", {
            "portfolios": ["p1.json", "p2.json"], "scenarios": 50, "seed": 3, "horizon": 8, "output_dir": "out",
        })

    def test_output_is_the_same_on_one_and_two_cores_and_matches_the_golden_digests(
        self, tmp_path, monkeypatch, forks
    ):
        from .test_golden import GOLDEN, run_digests

        digests = []
        for cores in (1, 2):
            set_usable_cores(monkeypatch, cores)
            digests.append(run_digests("run_simulate.json", tmp_path / f"cores_{cores}"))
            assert no_child_is_left()
        assert len(forks) == 2
        assert digests[0] == digests[1] == GOLDEN["run_simulate.json"]

        one_portfolio = TestSimulate.simulate_config(tmp_path)
        assert main(["simulate", "--config", str(one_portfolio)]) == 0
        assert len(forks) == 2

    def test_child_that_raises_ends_in_an_error_line(self, tmp_path):
        config = self.two_portfolio_config(tmp_path)
        (tmp_path / "out" / "p2_scenarios.csv").mkdir(parents=True)
        run = run_on_two_cores("simulate", config)
        assert run.returncode == 1
        assert run.stderr.startswith("error: [Errno 21] Is a directory: ") and "p2_scenarios.csv" in run.stderr
        assert not (tmp_path / "out" / "simulate_manifest.json").exists()

    def test_child_that_dies_ends_in_an_error_line(self, tmp_path):
        config = self.two_portfolio_config(tmp_path)
        run = run_on_two_cores("simulate", config, "reports.write_histogram_csv = lambda *args: os._exit(1)")
        assert run.returncode == 1
        assert run.stderr.startswith("error: a simulate process ended abruptly") and "Traceback" not in run.stderr
        assert not (tmp_path / "out" / "simulate_manifest.json").exists()

    def test_traced_run_completes_with_the_golden_digests(self):
        """The benchmark's tracer wraps every layer function; ``simulate``'s forked children run the wrappers too."""
        code = (
            "import os, sys, tempfile\n"
            "from pathlib import Path\n"
            "sys.dont_write_bytecode = True\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            f"sys.path[:0] = [{str(ROOT_DIR / 'bench')!r}, {str(ROOT_DIR)!r}]\n"
            "import protval.cli, tracing\n"
            "tracer = tracing.Tracer()\n"
            "tracer.install()\n"
            "tracer.begin_pass()\n"
            "from tests.test_golden import GOLDEN, run_digests\n"
            "for name in ('run_simulate.json', 'run_value.json'):\n"
            "    with tempfile.TemporaryDirectory() as scratch:\n"
            "        assert run_digests(name, Path(scratch)) == GOLDEN[name], name\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC_DIR), os.environ.get("PYTHONPATH", "")])}
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
        assert run.returncode == 0, run.stderr


class TestValueProcesses:
    """``value`` forks one process per chunk of portfolios, up to the usable cores."""

    @staticmethod
    def run_config(directory: Path, portfolios: list[str], output_dir: str = "out") -> Path:
        write_market_files(directory)
        return write_json(directory / "run.json", {
            "market": {"curve_csv": "curve.csv", "vols_csv": "vols.csv", "tax_rate": 0.275},
            "portfolios": [f"{name}.json" for name in portfolios],
            "scenarios": 200,
            "seed": 1,
            "horizon": 10,
            "spread_points": [[0.10, 0.02], [0.20, 0.03]],
            "output_dir": output_dir,
        })

    def test_output_is_the_same_on_one_and_two_cores_and_matches_the_golden_digests(
        self, tmp_path, monkeypatch, forks
    ):
        from .test_golden import GOLDEN, run_digests

        for cores, forked in ((1, 0), (2, 2)):
            set_usable_cores(monkeypatch, cores)
            assert run_digests("run_value.json", tmp_path / f"cores_{cores}") == GOLDEN["run_value.json"]
            assert len(forks) == forked and no_child_is_left()

    @pytest.mark.parametrize("cores", [1, 2])
    def test_first_failing_portfolio_in_input_order_is_named(self, tmp_path, monkeypatch, capsys, cores):
        # On two cores the chunks are p1-p2 and p3-p4, and each fails.
        for name in ("p1", "p4"):
            make_portfolio_file(tmp_path, name)
        for name in ("p2", "p3"):
            make_portfolio_file(tmp_path, name, retained_loss_ratio=1.4, sigma=0.05)
        config = self.run_config(tmp_path, ["p1", "p2", "p3", "p4"])
        set_usable_cores(monkeypatch, cores)

        assert main(["value", "--config", str(config)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: portfolio 'p2': mean PVFP must be > 0")
        assert captured.err.count("\n") == 1
        assert no_child_is_left()
        out = tmp_path / "out"
        assert not (out / "p2_pvfp_samples.csv").exists() and not (out / "p3_pvfp_samples.csv").exists()
        assert not (out / "risk_report.csv").exists() and not (out / "value_manifest.json").exists()

    def test_child_that_dies_ends_in_an_error_line(self, tmp_path):
        make_portfolio_file(tmp_path, "p1")
        make_portfolio_file(tmp_path, "p2", sigma=0.3)
        config = self.run_config(tmp_path, ["p1", "p2"])
        run = run_on_two_cores("value", config, "reports.write_pvfp_samples_csv = lambda *args: os._exit(1)")
        assert run.returncode == 1, run.stderr
        assert run.stderr.startswith("error: a value process ended abruptly") and "Traceback" not in run.stderr
        assert run.stderr.count("\n") == 1
        assert not (tmp_path / "out" / "risk_report.csv").exists()
        assert not (tmp_path / "out" / "value_manifest.json").exists()

    def test_failed_fork_reaps_the_children_already_started(self, tmp_path, monkeypatch, capsys):
        for name in ("p1", "p2"):
            make_portfolio_file(tmp_path, name)
        config = self.run_config(tmp_path, ["p1", "p2"])
        set_usable_cores(monkeypatch, 2)
        fork, calls = os.fork, []

        def fork_once():
            calls.append(1)
            if len(calls) > 1:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            return fork()

        monkeypatch.setattr(os, "fork", fork_once)
        assert main(["value", "--config", str(config)]) == 1
        assert capsys.readouterr().err == "error: [Errno 11] Resource temporarily unavailable\n"
        assert no_child_is_left()
        assert not (tmp_path / "out" / "value_manifest.json").exists()


def reap_children() -> int:
    """Wait for every child of this process; return how many there were."""
    reaped = 0
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return reaped
        reaped += 1


@pytest.mark.parametrize("config_name", ["run_simulate.json", "run_value.json"])
def test_fork_warning_in_the_parent_neither_fails_the_run_nor_loses_a_child(tmp_path, monkeypatch, config_name):
    """CPython 3.12+ warns in the parent when a process with more than one thread forks.

    The suite turns that ``DeprecationWarning`` into an error, raised after the child exists.
    """
    from .test_golden import GOLDEN, run_digests

    set_usable_cores(monkeypatch, 2)
    fork = os.fork

    def warning_fork():
        pid = fork()
        if pid:
            warnings.warn(
                f"This process (pid={os.getpid()}) is multi-threaded, "
                "use of fork() may lead to deadlocks in the child.",
                DeprecationWarning,
                stacklevel=2,
            )
        return pid

    monkeypatch.setattr(os, "fork", warning_fork)
    try:
        digests = run_digests(config_name, tmp_path)
    finally:
        left = reap_children()
    assert left == 0
    assert digests == GOLDEN[config_name]


@pytest.mark.parametrize("command", ["simulate", "value"])
def test_five_portfolios_give_the_same_files_and_stdout_on_one_two_and_three_cores(
    tmp_path, monkeypatch, capsys, forks, command
):
    """Three cores split five portfolios 1-2-2, two split them 2-3."""
    names = [f"p{i}" for i in range(1, 6)]
    for i, name in enumerate(names):
        make_portfolio_file(tmp_path, name, sigma=0.1 + 0.05 * i, profit_share_rate=0.1 * i)
    outputs = []
    for cores in (1, 2, 3):
        set_usable_cores(monkeypatch, cores)
        config = TestValueProcesses.run_config(tmp_path, names, output_dir=f"cores_{cores}")
        assert main([command, "--config", str(config)]) == 0
        out = tmp_path / f"cores_{cores}"
        assert no_child_is_left()
        files = {path.name: path.read_bytes() for path in out.iterdir() if "manifest" not in path.name}
        outputs.append((capsys.readouterr().out, files))
    assert len(forks) == 2 + 3
    assert outputs[0] == outputs[1] == outputs[2]
    assert len(outputs[0][1]) == (15 if command == "simulate" else 7)


class TestValue:
    def test_replay_reproduces_published_report(self, tmp_path, capsys):
        config = sample_config("run_value_replay.json", tmp_path)
        assert main(["value", "--config", str(config)]) == 0
        with (tmp_path / "out" / "risk_report.csv").open(newline="") as fh:
            rows = {r["portfolio"]: r for r in csv.DictReader(fh)}
        assert float(rows["portfolio_1"]["cur"]) == pytest.approx(3482.0, abs=1.0)
        assert float(rows["portfolio_2"]["cur"]) == pytest.approx(1409.0, abs=1.0)
        assert float(rows["portfolio_3"]["cur"]) == pytest.approx(45600.0, abs=1.0)
        assert float(rows["TOTAL"]["pvfp_tsr"]) == pytest.approx(2_058_828.0, abs=1.0)
        out = capsys.readouterr().out
        assert "0.11%" in out and "0.57%" in out and "1.35%" in out

    def test_simulated_run_echoes_lognormal_parameters(self, tmp_path, capsys):
        write_market_files(tmp_path)
        for name, mean, sigma in (
            ("p1", 0.95, 0.19), ("p2", 0.40, 0.21), ("p3", 0.60, 0.26),
        ):
            make_portfolio_file(tmp_path, name, retained_loss_ratio=mean, sigma=sigma)
        config = write_json(tmp_path / "run.json", {
            "market": {"curve_csv": "curve.csv", "vols_csv": "vols.csv", "tax_rate": 0.275},
            "portfolios": ["p1.json", "p2.json", "p3.json"],
            "scenarios": 200,
            "seed": 3,
            "horizon": 10,
            "spread_points": [[0.10, 0.02], [0.20, 0.03]],
            "output_dir": "out",
        })
        assert main(["value", "--config", str(config)]) == 0
        out = capsys.readouterr().out
        assert "-7%" in out and "-94%" in out and "-54%" in out

        with (tmp_path / "out" / "lognormal_params.csv").open(newline="") as fh:
            params = {r["portfolio"]: r for r in csv.DictReader(fh)}
        assert float(params["p1"]["mu"]) == pytest.approx(-0.0693, abs=5e-4)
        assert (tmp_path / "out" / "p1_pvfp_samples.csv").is_file()

    def test_scored_portfolio_values_like_the_same_file_with_its_echoed_sigma(self, tmp_path, capsys):
        write_market_files(tmp_path)
        make_portfolio_file(tmp_path, sigma=None, criteria=MODERATE_CRITERIA)
        config = str(write_json(tmp_path / "run.json", {
            "market": {"curve_csv": "curve.csv", "vols_csv": "vols.csv", "tax_rate": 0.275},
            "portfolios": ["p1.json"],
            "weights": str(SAMPLE_DIR / "weights_illustrative.json"),
            "scenarios": 300,
            "seed": 5,
            "horizon": 10,
            "spread_points": [[0.10, 0.02], [0.20, 0.03]],
        }))
        assert main(["value", "--config", config, "--out", str(tmp_path / "scored")]) == 0
        scored_stdout = capsys.readouterr().out
        with (tmp_path / "scored" / "lognormal_params.csv").open(newline="") as fh:
            (echo,) = csv.DictReader(fh)
        make_portfolio_file(tmp_path, sigma=float(echo["sigma"]))
        assert main(["value", "--config", config, "--out", str(tmp_path / "direct")]) == 0

        assert capsys.readouterr().out == scored_stdout
        outputs = [{f.name: f.read_bytes() for f in (tmp_path / name).iterdir()} for name in ("scored", "direct")]
        assert len(outputs[0]) == 4 and outputs[0] == outputs[1]

    def test_degenerate_two_scenario_run_has_zero_spread_and_cur(self, tmp_path):
        write_market_files(tmp_path)
        make_portfolio_file(tmp_path, "p1", sigma=0.0)
        config = write_json(tmp_path / "run.json", {
            "market": {"curve_csv": "curve.csv", "vols_csv": "vols.csv"},
            "portfolios": ["p1.json"],
            "scenarios": 2,
            "seed": 1,
            "horizon": 5,
            "spread_points": [[0.10, 0.02], [0.20, 0.03]],
            "output_dir": "out",
        })
        assert main(["value", "--config", str(config)]) == 0
        with (tmp_path / "out" / "risk_report.csv").open(newline="") as fh:
            rows = {r["portfolio"]: r for r in csv.DictReader(fh)}
        assert float(rows["p1"]["vol_pvfp"]) == 0.0
        assert float(rows["p1"]["spread"]) == 0.0
        assert abs(float(rows["p1"]["cur"])) < 1e-6

    def test_loss_making_portfolio_is_named(self, tmp_path, capsys):
        write_market_files(tmp_path)
        make_portfolio_file(tmp_path, "lossy", retained_loss_ratio=1.4, sigma=0.05)
        config = write_json(tmp_path / "run.json", {
            "market": {"curve_csv": "curve.csv", "vols_csv": "vols.csv"},
            "portfolios": ["lossy.json"],
            "scenarios": 200,
            "seed": 1,
            "horizon": 10,
            "spread_points": [[0.10, 0.02], [0.20, 0.03]],
            "output_dir": "out",
        })
        assert main(["value", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: portfolio 'lossy': mean PVFP must be > 0")
        assert not (tmp_path / "out" / "lossy_pvfp_samples.csv").exists()

    def test_degenerate_portfolio_is_named_and_writes_nothing(self, tmp_path, capsys):
        # A flat chronicle at S/P = 1 with no profit share has no profit: PVFP at the risk-free rate is 0.
        write_market_files(tmp_path)
        make_portfolio_file(
            tmp_path, "flat", chronicle=[1.0] * 5, profit_share_rate=0.0, retained_loss_ratio=1.0, sigma=0.05
        )
        config = write_json(tmp_path / "run.json", {
            "market": {"curve_csv": "curve.csv", "vols_csv": "vols.csv"},
            "portfolios": ["flat.json"],
            "scenarios": 200,
            "seed": 3,
            "horizon": 5,
            "spread_points": [[0.10, 0.02], [0.20, 0.03]],
            "output_dir": "out",
        })
        assert main(["value", "--config", str(config)]) == 1
        assert capsys.readouterr().err == (
            "error: portfolio 'flat': portfolio is degenerate: PVFP at the risk-free rate is 0\n"
        )
        out = tmp_path / "out"
        assert not (out / "flat_pvfp_samples.csv").exists()
        assert not (out / "risk_report.csv").exists() and not (out / "value_manifest.json").exists()

    def test_missing_spread_points_is_a_config_error(self, tmp_path, capsys):
        write_market_files(tmp_path)
        make_portfolio_file(tmp_path)
        config = write_json(tmp_path / "run.json", {
            "market": {"curve_csv": "curve.csv", "vols_csv": "vols.csv"},
            "portfolios": ["p1.json"],
            "scenarios": 10,
            "output_dir": "out",
        })
        assert main(["value", "--config", str(config)]) == 1
        assert "spread_points" in capsys.readouterr().err


def write_small_run(tmp_path: Path, replay: bool) -> Path:
    """Curve, vols, chronicle, portfolio, cap spec and replay files, and a run config using them."""
    write_market_files(tmp_path)
    (tmp_path / "chronicle.csv").write_text("year,expected_sp\n1,0.8\n2,0.85\n", encoding="utf-8")
    make_portfolio_file(tmp_path, chronicle_csv="chronicle.csv")
    write_json(tmp_path / "cap.json", {"strike": 0.019, "index_tenor_years": 3, "notionals": [1.0, 1.0]})
    write_json(tmp_path / "replay.json", [
        {"id": "r1", "mean_pvfp": 54674, "vol_pvfp": 1074, "pvfp_tsr": 54674, "pvfp_tsr_spread": 53265},
    ])
    run = {
        "market": {"curve_csv": "curve.csv", "vols_csv": "vols.csv", "tax_rate": 0.0},
        "cap_spec": "cap.json",
        "scenarios": 20,
        "horizon": 2,
        "spread_points": [[0.10, 0.02], [0.20, 0.03]],
        "output_dir": "out",
    }
    if replay:
        run["replay_pvfp"] = "replay.json"
    else:
        run["portfolios"] = ["p1.json"]
    return write_json(tmp_path / "run.json", run)


def run_with_field(tmp_path: Path, command: str, bad_file: str, field_path: tuple, value) -> int:
    """Run ``command`` on the small run after setting one JSON field of ``bad_file`` to ``value``."""
    config = write_small_run(tmp_path, replay=bad_file == "replay.json")
    target = tmp_path / bad_file
    data = json.loads(target.read_text(encoding="utf-8"))
    parent = data
    for key in field_path[:-1]:
        parent = parent[key]
    parent[field_path[-1]] = value
    write_json(target, data)
    return main([command, "--config", str(config)])


@pytest.mark.parametrize(
    ("command", "bad_file", "number", "replacement"),
    [
        ("value", "curve.csv", "0.0268", "nan"),
        ("price-cap", "vols.csv", "0.17", "inf"),
        ("value", "chronicle.csv", "0.85", "nan"),
        ("value", "p1.json", "1000.0", "NaN"),
        ("value", "p1.json", "1000.0", "1e999"),
        ("value", "replay.json", "54674", "Infinity"),
    ],
)
def test_non_finite_input_is_rejected_naming_the_file(
    tmp_path, capsys, command, bad_file, number, replacement
):
    config = write_small_run(tmp_path, replay=bad_file == "replay.json")
    target = tmp_path / bad_file
    text = target.read_text(encoding="utf-8")
    assert number in text
    target.write_text(text.replace(number, replacement, 1), encoding="utf-8")

    assert main([command, "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and bad_file in err
    assert "Traceback" not in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy's overflow warning in the PVFP discounts
@pytest.mark.parametrize(
    ("command", "rate", "message"),
    [
        ("value", "-0.99999999999999", "portfolio 'portfolio_1': mean must be finite, got nan"),
        ("price-cap", "-0.99999999999999", "{curve}: discount factor at tenor 23 with zero rate -0.99999999999999 "),
        ("price-cap", "1e12", "{curve}: discount factor at tenor 27 with zero rate 1000000000000.0 "),
    ],
)
def test_extreme_but_accepted_curve_stops_with_one_error_and_writes_no_non_finite_number(
    tmp_path, capsys, command, rate, message
):
    """A rate just above -1 overflows the discount factors, a huge rate underflows them to 0."""
    curve = tmp_path / "curve.csv"
    curve.write_text(f"tenor_years,zero_rate\n0,{rate}\n1,{rate}\n", encoding="utf-8")
    market = {"curve_csv": str(curve), "vols_csv": str(SAMPLE_DIR / "market_vols.csv"), "spot_index_rate": 0.0195}
    spec = json.loads((SAMPLE_DIR / "cap_remuneration.json").read_text(encoding="utf-8"))
    del spec["replay"]
    cap = write_json(tmp_path / "cap.json", {**spec, "notionals": [1e6] * 40})
    name = "run_value.json" if command == "value" else "run_price_cap.json"
    config = sample_config(name, tmp_path, market=market, cap_spec=str(cap), scenarios=50)

    assert main([command, "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: " + message.format(curve=curve)) and err.count("\n") == 1
    written = [f.read_text(encoding="utf-8") for f in tmp_path.glob("out/**/*") if f.is_file()]
    assert not any("nan" in text or "inf" in text for text in written)


@pytest.mark.parametrize(
    ("bad_file", "key", "value"),
    [
        ("run.json", "scenarios", 20),
        ("run.json", "tax_rate", 0.1),
        ("p1.json", "sigma", 0.25),
        ("cap.json", "strike", 0.02),
        ("replay.json", "vol_pvfp", 1074),
    ],
)
def test_key_given_twice_in_one_object_is_rejected_naming_the_file(tmp_path, capsys, bad_file, key, value):
    """JSON allows a repeated key and Python's parser keeps the last value; the engine names the repeat instead."""
    config = write_small_run(tmp_path, replay=bad_file == "replay.json")
    target = tmp_path / bad_file
    text = target.read_text(encoding="utf-8")
    assert f'"{key}": ' in text
    target.write_text(text.replace(f'"{key}": ', f'"{key}": {value}, "{key}": ', 1), encoding="utf-8")

    command = "price-cap" if bad_file == "cap.json" else "value"
    assert main([command, "--config", str(config)]) == 1
    assert capsys.readouterr().err == f"error: {target}: field {key!r} is given more than once\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    ("command", "bad_file", "header"),
    [("value", "curve.csv", "tenor_years,zero_rate"), ("price-cap", "vols.csv", "fixing_years,black_vol")],
)
def test_decreasing_grid_is_rejected_naming_the_file(tmp_path, capsys, command, bad_file, header):
    config = write_small_run(tmp_path, replay=False)
    (tmp_path / bad_file).write_text(f"{header}\n2,0.02\n1,0.03\n", encoding="utf-8")

    assert main([command, "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / bad_file}: ") and "strictly increasing" in err


@pytest.mark.parametrize("command", ["simulate", "value"])
def test_duplicate_portfolio_id_is_rejected_naming_both_files(tmp_path, capsys, command):
    config = write_small_run(tmp_path, replay=False)
    make_portfolio_file(tmp_path, "p1_copy", id="p1", initial_premium=2000.0, chronicle_csv="chronicle.csv")
    run = json.loads(config.read_text(encoding="utf-8"))
    run["portfolios"].append("p1_copy.json")
    write_json(config, run)

    assert main([command, "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: portfolio id 'p1' ") and "p1.json" in err and "p1_copy.json" in err
    assert not list((tmp_path / "out").glob("p1_*.csv"))


@pytest.mark.parametrize("command", ["simulate", "value"])
def test_unresolvable_portfolio_parameters_stop_the_run_before_any_output(tmp_path, capsys, command):
    config = write_small_run(tmp_path, replay=False)
    make_portfolio_file(tmp_path, "p2", sigma=None, criteria=MODERATE_CRITERIA, chronicle=[0.8, 0.85])
    run = json.loads(config.read_text(encoding="utf-8"))
    write_json(config, {**run, "portfolios": ["p1.json", "p2.json"]})

    assert main([command, "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / 'p2.json'}: field 'criteria' needs a weight matrix")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("sigma", [1e100, 1.35e154])
@pytest.mark.parametrize("command", ["simulate", "value"])
def test_sigma_too_large_for_the_mean_to_round_trip_is_rejected_naming_the_file(tmp_path, capsys, command, sigma):
    portfolio = json.loads((SAMPLE_DIR / "portfolio_1.json").read_text(encoding="utf-8"))
    bad_file = write_json(tmp_path / "portfolio_1.json", {**portfolio, "sigma": sigma})
    config = sample_config("run_value.json", tmp_path, portfolios=[str(bad_file)], scenarios=20)

    assert main([command, "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad_file}: implied mean exp(mu + sigma^2/2) must equal the retained loss ratio")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("scenarios", [10**15, 10**30])
@pytest.mark.parametrize("command", ["simulate", "value"])
def test_scenario_count_too_large_to_draw_stops_before_any_output(tmp_path, capsys, command, scenarios):
    """10**15 draws need 7 PiB, which fails at once and reserves nothing; 10**30 exceeds numpy's largest dimension.

    Run in-process, so a ``MemoryError`` that escaped ``main`` would fail the test with its traceback.
    """
    config = write_small_run(tmp_path, replay=False)
    run = json.loads(config.read_text(encoding="utf-8"))
    del run["scenarios"]
    write_json(config, run)

    assert main([command, "--config", str(config), "--scenarios", str(scenarios)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}: scenarios={scenarios}: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("horizon", [10**15, 10**21])
@pytest.mark.parametrize("command", ["simulate", "value"])
def test_horizon_too_long_to_build_a_chronicle_stops_before_any_output(tmp_path, capsys, command, horizon):
    """10**15 years of chronicle need 8 PB, which fails at once; 10**21 exceeds a tuple's largest length.

    The portfolio has no chronicle of its own, so its chronicle repeats the retained loss ratio over the horizon.
    """
    portfolio = make_portfolio_file(tmp_path)
    config = sample_config("run_value.json", tmp_path, portfolios=[str(portfolio)], scenarios=20, horizon=horizon)

    assert main([command, "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {portfolio}: horizon={horizon} ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    ("field", "value"),
    [("seed", 1e30), ("horizon", 1e300), ("scenarios", 2.0**53 + 2), ("seed", -(2.0**54)), ("horizon", 2.5)],
)
@pytest.mark.parametrize("command", ["simulate", "value"])
def test_float_that_is_not_an_exact_integer_is_rejected(tmp_path, capsys, command, field, value):
    """Above 2**53 a float is not the integer that was written (1e30 reads 1000000000000000019884624838656)."""
    config = sample_config("run_value.json", tmp_path, **{field: value})

    assert main([command, "--config", str(config)]) == 1
    assert capsys.readouterr().err == f"error: {config}: field {field!r} must be an integer, got {value!r}\n"
    assert not (tmp_path / "out").exists()


def test_integral_float_up_to_2_to_the_53_is_read_as_that_integer(tmp_path):
    config = sample_config("run_value.json", tmp_path, seed=2.0**53, scenarios=20.0, horizon=30.0)
    run = load_run_config(config)
    assert (run.seed, run.scenarios, run.horizon) == (2**53, 20, 30)
    assert all(type(v) is int for v in (run.seed, run.scenarios, run.horizon))


@pytest.mark.parametrize("source", ["chronicle_csv", "chronicle"])
@pytest.mark.parametrize("command", ["simulate", "value"])
def test_chronicle_length_differing_from_run_horizon_is_rejected(tmp_path, capsys, command, source):
    config = write_small_run(tmp_path, replay=False)
    (tmp_path / "chronicle.csv").write_text("year,expected_sp\n1,0.8\n2,0.85\n3,0.9\n", encoding="utf-8")
    if source == "chronicle":
        make_portfolio_file(tmp_path, chronicle=[0.8, 0.85, 0.9])

    assert main([command, "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / 'p1.json'}: ")
    assert "covers 3 years, the run horizon is 2" in err
    assert not list((tmp_path / "out").glob("p1_*.csv"))


@pytest.mark.parametrize(
    "bad_value", ["nan", 10**400, True, None], ids=["json_string", "huge_integer", "boolean", "null"]
)
@pytest.mark.parametrize(
    ("command", "bad_file", "field_path"),
    [
        ("value", "p1.json", ("initial_premium",)),
        ("value", "replay.json", (0, "mean_pvfp")),
        ("price-cap", "cap.json", ("strike",)),
        ("value", "run.json", ("market", "tax_rate")),
    ],
    ids=["portfolio", "replay", "cap_spec", "run_config"],
)
def test_json_value_that_is_not_a_float_is_rejected_naming_file_and_field(
    tmp_path, capsys, command, bad_file, field_path, bad_value
):
    assert run_with_field(tmp_path, command, bad_file, field_path, bad_value) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and bad_file in err and repr(field_path[-1]) in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    ("command", "bad_file", "field_path"),
    [
        ("value", "p1.json", ("reversion_speed",)),
        ("value", "p1.json", ("tax_rate",)),
        ("value", "p1.json", ("profit_share_rate",)),
        ("simulate", "run.json", ("market", "tax_rate")),
        ("price-cap", "cap.json", ("accrual_years",)),
        ("price-cap", "cap.json", ("booked_flows_pv",)),
        ("value", "replay.json", (0, "pvfp_tsr_spread")),
    ],
    ids=["reversion_speed", "portfolio_tax_rate", "profit_share_rate", "market_tax_rate", "accrual_years",
         "booked_flows_pv", "pvfp_tsr_spread"],
)
def test_null_in_a_number_field_with_a_default_is_rejected(tmp_path, capsys, command, bad_file, field_path):
    assert run_with_field(tmp_path, command, bad_file, field_path, None) == 1
    err = capsys.readouterr().err
    assert err == f"error: {tmp_path / bad_file}: field {field_path[-1]!r} must be a number, got None\n"


@pytest.mark.parametrize("bad_id", ["../escaped", "sub/p", "sub\\p", "", ".", "..", None, 7])
@pytest.mark.parametrize("command", ["simulate", "value"])
def test_portfolio_id_must_be_a_file_name(tmp_path, capsys, command, bad_id):
    assert run_with_field(tmp_path, command, "p1.json", ("id",), bad_id) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / 'p1.json'}: field 'id' must be a file name")
    assert not [p for p in tmp_path.rglob("*") if p.name.endswith(("_pvfp_samples.csv", "_scenarios.csv"))]


def test_replay_row_id_must_be_a_string(tmp_path, capsys):
    assert run_with_field(tmp_path, "value", "replay.json", (0, "id"), 7) == 1
    assert capsys.readouterr().err == f"error: {tmp_path / 'replay.json'}: field 'id' must be a string, got 7\n"


def test_replay_id_repeated_in_a_later_row_is_rejected(tmp_path, capsys):
    rows = json.loads((SAMPLE_DIR / "replay_pvfp.json").read_text(encoding="utf-8"))
    replay = write_json(tmp_path / "replay_pvfp.json", [*rows, rows[0]])
    config = sample_config("run_value_replay.json", tmp_path, replay_pvfp=str(replay))

    assert main(["value", "--config", str(config)]) == 1
    assert capsys.readouterr().err == f"error: {replay}: portfolio id 'portfolio_1' is used in more than one row\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    ("command", "bad_file", "field_path", "bad_value", "expected"),
    [
        ("value", "p1.json", ("renewal",), 5, "field 'renewal' must be an object"),
        ("value", "p1.json", ("criteria",), 5, "field 'criteria' must be an object"),
        ("value", "run.json", ("portfolios",), 5, "field 'portfolios' must be an array"),
        ("price-cap", "cap.json", ("notionals",), 5, "field 'notionals' must be an array"),
        ("price-cap", "cap.json", ("use_spot_for_first_period",), "false",
         "field 'use_spot_for_first_period' must be true or false"),
        ("value", "replay.json", (0, "mean_pvfp"), 0, "row 'r1': field 'mean_pvfp' must be > 0"),
        ("value", "replay.json", (0, "vol_pvfp"), -4.3e-06, "row 'r1': field 'vol_pvfp' must be >= 0"),
        ("value", "replay.json", (0, "pvfp_tsr"), 0, "row 'r1': field 'pvfp_tsr' must not be 0"),
        ("price-cap", "run.json", ("market", "tax_rate"), 1.5, "market.tax_rate must be in [0, 1)"),
        ("value", "run.json", ("market", "tax_rate"), 1.5, "market.tax_rate must be in [0, 1)"),
        ("simulate", "run.json", ("market", "tax_rate"), -0.1, "market.tax_rate must be in [0, 1)"),
        ("value", "run.json", ("scenarios",), 1, "scenarios must be >= 2, got 1"),
        ("simulate", "run.json", ("horizon",), 0, "horizon must be >= 1, got 0"),
        ("simulate", "run.json", ("seed",), -1, "seed must be >= 0, got -1"),
        ("simulate", "run.json", ("output_dir",), ["a", "b"], "field 'output_dir' must be a string, got ['a', 'b']"),
        ("calibrate-spread", "run.json", ("output_dir",), 5, "field 'output_dir' must be a string, got 5"),
    ],
    ids=["renewal", "criteria", "portfolios", "notionals", "use_spot", "mean_pvfp", "vol_pvfp", "pvfp_tsr",
         "tax_rate", "tax_rate_value", "tax_rate_simulate", "scenarios", "horizon", "seed", "output_dir_array",
         "output_dir_number"],
)
def test_malformed_or_out_of_range_field_is_rejected_naming_file_and_field(
    tmp_path, capsys, command, bad_file, field_path, bad_value, expected
):
    assert run_with_field(tmp_path, command, bad_file, field_path, bad_value) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and bad_file in err and expected in err


@pytest.mark.parametrize("command", ["calibrate-spread", "value", "price-cap", "simulate"])
@pytest.mark.parametrize(
    ("points", "expected"),
    [
        ([[0.10, 0.02], [0.20, 0.03], [0.30, 0.04]], "exactly two calibration points are required, got 3"),
        ([[0.10, -0.02], [0.20, 0.03]], "calibration points must have positive coordinates"),
        ([[0.10, 0.02], [0.10, 0.03]], "calibration points must be distinct in both coordinates"),
        ([[0.10, 0.02], [0.20, 0.04]], "no spread curvature fits the points"),
    ],
    ids=["three_points", "negative_spread", "equal_rel_vols", "proportional_points"],
)
def test_bad_spread_points_are_rejected_naming_the_run_config(tmp_path, capsys, command, points, expected):
    assert run_with_field(tmp_path, command, "run.json", ("spread_points",), points) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / 'run.json'}: spread_points: {expected}")
    assert not (tmp_path / "out").exists()


def test_relative_out_flag_resolves_against_the_working_directory(tmp_path, monkeypatch):
    inputs, cwd = tmp_path / "inputs", tmp_path / "cwd"
    inputs.mkdir()
    cwd.mkdir()
    config = write_small_run(inputs, replay=True)
    run = json.loads(config.read_text(encoding="utf-8"))
    del run["output_dir"]
    write_json(config, run)
    monkeypatch.chdir(cwd)

    assert main(["calibrate-spread", "--config", str(config), "--out", "relout"]) == 0
    assert (cwd / "relout" / "spread_function.json").is_file()
    assert not (inputs / "relout").exists()


def test_out_flag_conflicts_with_the_config_only_when_the_resolved_directories_differ(tmp_path, monkeypatch, capsys):
    """The config's ``"output_dir": "out"`` is ``<config dir>/out``; ``--out out`` is ``<cwd>/out``."""
    config = write_small_run(tmp_path, replay=True)
    assert main(["calibrate-spread", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "spread_function.json").is_file()

    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    assert main(["calibrate-spread", "--config", str(config), "--out", "out"]) == 1
    assert capsys.readouterr().err == (
        f"error: {config}: output_dir={tmp_path / 'out'} conflicts with the command-line value {cwd / 'out'}; "
        "remove one\n"
    )
    assert not (cwd / "out").exists()


class TestSharedDraws:
    """Every portfolio of a run reads the same draws, so a portfolio's outputs do not depend on its neighbours."""

    @staticmethod
    def run(tmp_path: Path, command: str, portfolios: list[str], name: str) -> Path:
        config = write_small_run(tmp_path, replay=False)
        make_portfolio_file(tmp_path, "p0", sigma=0.35, retained_loss_ratio=0.7, chronicle_csv="chronicle.csv")
        run = json.loads(config.read_text(encoding="utf-8"))
        run.update(portfolios=portfolios, scenarios=1500, output_dir=name)
        write_json(config, run)
        assert main([command, "--config", str(config)]) == 0
        return tmp_path / name

    def test_value_outputs_of_a_portfolio_do_not_depend_on_the_others(self, tmp_path):
        both = self.run(tmp_path, "value", ["p0.json", "p1.json"], "both")
        alone = self.run(tmp_path, "value", ["p1.json"], "alone")
        samples = "p1_pvfp_samples.csv"
        assert (both / samples).read_bytes() == (alone / samples).read_bytes()
        rows = [
            {line for line in (out / "risk_report.csv").read_text(encoding="utf-8").splitlines()
             if line.startswith("p1,")}
            for out in (both, alone)
        ]
        assert len(rows[0]) == 1 and rows[0] == rows[1]

    def test_simulate_scenarios_of_a_portfolio_do_not_depend_on_the_others(self, tmp_path):
        both = self.run(tmp_path, "simulate", ["p0.json", "p1.json"], "both")
        alone = self.run(tmp_path, "simulate", ["p1.json"], "alone")
        assert (both / "p1_scenarios.csv").read_bytes() == (alone / "p1_scenarios.csv").read_bytes()


def test_value_samples_are_the_pvfp_of_the_simulated_paths(tmp_path):
    """At one seed and scenario count, each ``value`` PVFP sample is ``pvfp`` of the ``simulate`` path, bit for bit."""
    config = sample_config("run_value.json", tmp_path, scenarios=2000)
    assert main(["value", "--config", str(config)]) == 0
    assert main(["simulate", "--config", str(config)]) == 0
    run = load_run_config(config)
    curve = load_curve(run)
    for path in run.portfolio_paths:
        spec = load_portfolio(path, run.horizon, None)
        scenarios = np.loadtxt(run.output_dir / f"{spec.id}_scenarios.csv", delimiter=",", skiprows=1)
        samples = np.loadtxt(run.output_dir / f"{spec.id}_pvfp_samples.csv", delimiter=",", skiprows=1)
        assert scenarios.shape == (2000, 1 + run.horizon)
        repriced = np.array([pvfp(spec, row, curve) for row in scenarios[:, 1:]])
        assert repriced.tobytes() == samples[:, 1].tobytes()


def test_value_mean_pvfp_is_within_three_standard_errors_of_a_quantile_grid_reference(tmp_path):
    """The seeded ``value`` mean PVFP of each sample portfolio against a reference with no sampling noise.

    The reference values the draws z_i = Phi^-1((i + 1/2) / N), a midpoint
    rule for E[PVFP] over one standard normal, through the same
    ``draw_initial_ratios`` and ``pvfp_of_ratios``. At N = 200,000 it lies
    within 0.01% of a Gauss-Legendre quadrature split at the kinks of the
    PVFP, far inside one standard error of the 10,000-scenario mean.
    """
    config = sample_config("run_value.json", tmp_path)
    assert main(["value", "--config", str(config)]) == 0
    run = load_run_config(config)
    curve = load_curve(run)
    n = 200_000
    z = scipy.stats.norm.ppf((np.arange(n) + 0.5) / n)
    for path in run.portfolio_paths:
        spec = load_portfolio(path, run.horizon, None)
        sp1 = draw_initial_ratios(lognormal_mu(spec.mean_sp, spec.sigma), spec.sigma, z)
        reference = pvfp_of_ratios(spec, sp1, curve).mean()
        samples = np.loadtxt(run.output_dir / f"{spec.id}_pvfp_samples.csv", delimiter=",", skiprows=1)[:, 1]
        assert samples.size == 10_000
        se = samples.std(ddof=1) / np.sqrt(samples.size)
        assert abs(samples.mean() - reference) < 3.0 * se, spec.id


class TestCalibrateSpread:
    def test_prints_and_writes_the_fit(self, tmp_path, capsys):
        config = sample_config("run_calibrate.json", tmp_path)
        assert main(["calibrate-spread", "--config", str(config)]) == 0
        out = capsys.readouterr().out
        assert "a = 0.020781" in out
        assert "b = 16.1803" in out
        payload = json.loads((tmp_path / "out" / "spread_function.json").read_text())
        assert payload["a"] == pytest.approx(0.0208, abs=1e-4)
        assert payload["b"] == pytest.approx(16.188, abs=0.01)
