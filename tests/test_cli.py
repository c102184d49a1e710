"""Command-line driver: golden files, error contracts, determinism."""

from __future__ import annotations

import csv
import functools
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from protval import cli, loss, projection
from protval.cap import caplet_price
from protval.cli import build_parser, main
from protval.config import load_curve, load_portfolio, load_run_config
from protval.projection import pvfp_rows
from protval.reports import FAN_LABELS, FAN_PROBS, HISTOGRAM_MAX_BINS

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
            {"strike": None, "strikes": [0.019, 0.021, 0.015, 0.019, 0.03, 0.0185, 0.019]},
        ],
        ids=["sample_spec", "curve_forward_for_period_0", "spot_and_per_period_strikes"],
    )
    def test_report_rows_reprice_the_caplet_costs(self, tmp_path, spec_patch):
        """A None in ``spec_patch`` deletes that field of the sample spec."""
        spec = json.loads((SAMPLE_DIR / "cap_remuneration.json").read_text(encoding="utf-8"))
        del spec["replay"]
        spec = {key: value for key, value in {**spec, **spec_patch}.items() if value is not None}
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
        assert rows["strike"] == (spec["strikes"] if "strikes" in spec else [spec["strike"]] * len(spec["notionals"]))
        assert (rows["forward_rate"][0] == 0.0195) == spec["use_spot_for_first_period"]

    @pytest.mark.parametrize(
        ("spec_patch", "expected"),
        [
            ({"strikes": [0.019] * 7}, "fields 'strike' and 'strikes' conflict; give one"),
            ({"strike": 0.5, "strikes": [0.019] * 7}, "fields 'strike' and 'strikes' conflict; give one"),
            ({"strike": -1.0, "strikes": [0.019] * 7}, "fields 'strike' and 'strikes' conflict; give one"),
            ({"strike": None}, "missing required field 'strike'"),
        ],
        ids=["strike_and_strikes", "ignored_strike", "bad_strike_and_strikes", "neither"],
    )
    def test_spec_gives_exactly_one_of_strike_and_strikes(self, tmp_path, capsys, spec_patch, expected):
        """A None in ``spec_patch`` deletes that field of the sample spec; the run stops before any output."""
        spec = json.loads((SAMPLE_DIR / "cap_remuneration.json").read_text(encoding="utf-8"))
        spec = {key: value for key, value in {**spec, **spec_patch}.items() if value is not None}
        cap = write_json(tmp_path / "cap.json", spec).resolve()
        config = sample_config("run_price_cap.json", tmp_path, cap_spec=str(cap))
        assert main(["price-cap", "--config", str(config)]) == 1
        assert capsys.readouterr().err == f"error: {cap}: {expected}\n"
        assert not (tmp_path / "out").exists()

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
        cap, curve, vols = ((tmp_path / name).resolve() for name in ("cap.json", "curve.csv", "vols.csv"))
        assert capsys.readouterr().err == (
            f"error: {cap}, {curve}, {vols}: period 2: forward must be > 0 when vol > 0, got -0.5\n"
        )
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


class TestSimulateProcesses:
    """``simulate`` runs every portfolio in the calling process, whatever the usable cores."""

    @staticmethod
    def two_portfolio_config(directory: Path) -> Path:
        make_portfolio_file(directory, "p1")
        make_portfolio_file(directory, "p2", sigma=0.3)
        return write_json(directory / "run.json", {
            "portfolios": ["p1.json", "p2.json"], "scenarios": 50, "seed": 3, "horizon": 8, "output_dir": "out",
        })

    def test_child_that_raises_ends_in_an_error_line(self, tmp_path, capsys):
        """A portfolio whose file cannot be opened ends the run in one error line naming the file."""
        config = self.two_portfolio_config(tmp_path)
        (tmp_path / "out" / "p2_scenarios.csv").mkdir(parents=True)
        assert main(["simulate", "--config", str(config)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: [Errno 21] Is a directory: ") and "p2_scenarios.csv" in captured.err
        assert captured.err.count("\n") == 1
        assert not (tmp_path / "out" / "simulate_manifest.json").exists()

    def test_traced_run_completes_with_the_golden_digests(self, tmp_path):
        """The benchmark's tracer wraps every layer function, and every job of the golden runs keeps its digests."""
        code = (
            "import sys\n"
            "from pathlib import Path\n"
            "sys.dont_write_bytecode = True\n"
            f"sys.path[:0] = [{str(ROOT_DIR / 'tools')!r}, {str(ROOT_DIR / 'bench')!r}, {str(ROOT_DIR)!r}]\n"
            "import output_digests, protval.cli, tracing\n"  # the tracer wraps the layers protval.cli imports
            "tracer = tracing.Tracer()\n"
            "tracer.install()\n"
            "tracer.begin_pass()\n"
            "from tests.test_golden import GOLDEN_LINES, changes\n"
            f"moved = changes(output_digests.digest_lines(Path({str(tmp_path)!r})), GOLDEN_LINES)\n"
            "sys.exit('\\n'.join(moved) or None)\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC_DIR), os.environ.get("PYTHONPATH", "")])}
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
        assert run.returncode == 0, run.stderr


class TestValueProcesses:
    """``value`` runs every portfolio in the calling process, whatever the usable cores."""

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

    def test_first_failing_portfolio_in_input_order_is_named(self, tmp_path, capsys):
        """p2 and p3 both fail; the error names p2, and nothing is written, not even p1's samples priced before it."""
        for name in ("p1", "p4"):
            make_portfolio_file(tmp_path, name)
        for name in ("p2", "p3"):
            make_portfolio_file(tmp_path, name, retained_loss_ratio=1.4, sigma=0.05)
        config = self.run_config(tmp_path, ["p1", "p2", "p3", "p4"])

        assert main(["value", "--config", str(config)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: portfolio 'p2': mean PVFP must be > 0")
        assert captured.err.count("\n") == 1
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["simulate", "value"])
def test_five_portfolios_give_the_same_files_and_stdout_on_one_two_and_three_cores(
    tmp_path, monkeypatch, capsys, forks, command
):
    """The usable cores change neither a file nor stdout, and no process is forked."""
    names = [f"p{i}" for i in range(1, 6)]
    for i, name in enumerate(names):
        make_portfolio_file(tmp_path, name, sigma=0.1 + 0.05 * i, profit_share_rate=0.1 * i)
    outputs = []
    for cores in (1, 2, 3):
        set_usable_cores(monkeypatch, cores)
        config = TestValueProcesses.run_config(tmp_path, names, output_dir=f"cores_{cores}")
        assert main([command, "--config", str(config)]) == 0
        out = tmp_path / f"cores_{cores}"
        files = {path.name: path.read_bytes() for path in out.iterdir() if "manifest" not in path.name}
        outputs.append((capsys.readouterr().out, files))
    assert forks == []
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
        # One portfolio runs in-process, and it fails before the run's first file, so no directory is made.
        assert not (tmp_path / "out").exists()

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
            "error: portfolio 'flat': pvfp_tsr must not be 0: "
            "the portfolio is degenerate (PVFP at the risk-free rate is 0)\n"
        )
        out = tmp_path / "out"
        assert not (out / "flat_pvfp_samples.csv").exists()
        assert not (out / "risk_report.csv").exists() and not (out / "value_manifest.json").exists()


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


@pytest.mark.parametrize(
    ("command", "rate", "message"),
    [
        ("value", "-0.99999999999999", "{curve}: discount factor at tenor 23 with zero rate -0.99999999999999 "),
        ("price-cap", "-0.99999999999999", "{curve}: discount factor at tenor 23 with zero rate -0.99999999999999 "),
        ("price-cap", "1e12", "{curve}: discount factor at tenor 27 with zero rate 1000000000000.0 "),
    ],
)
def test_extreme_but_accepted_curve_stops_with_one_error_and_writes_no_non_finite_number(
    tmp_path, capsys, command, rate, message
):
    """A rate just above -1 overflows the discount factors, a huge rate underflows them to 0; numpy warns of neither."""
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


def assert_one_error_and_no_non_finite_output(code: int, err: str, expected: str, out: Path) -> None:
    assert code == 1 and err == f"error: {expected}\n", err
    written = [f.read_text(encoding="utf-8") for f in out.glob("**/*") if f.is_file()]
    assert not any("nan" in text or "inf" in text for text in written)


def test_underflowing_curve_still_values_to_a_finite_report(tmp_path):
    """A curve rising to 1e12 at 30 years underflows the late discount factors to 0, which drops those years."""
    curve = tmp_path / "curve.csv"
    curve.write_text("tenor_years,zero_rate\n0,0.03\n30,1e12\n", encoding="utf-8")
    market = {"curve_csv": str(curve), "vols_csv": str(SAMPLE_DIR / "market_vols.csv")}
    config = sample_config("run_value.json", tmp_path, market=market, scenarios=50)
    assert main(["value", "--config", str(config)]) == 0
    with (tmp_path / "out" / "risk_report.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4 and all(np.isfinite(float(v)) for row in rows for v in list(row.values())[1:] if v)


def test_cap_spec_using_the_spot_needs_a_spot_rate_in_the_run_config(tmp_path, capsys):
    market = {"curve_csv": str(SAMPLE_DIR / "market_curve.csv"), "vols_csv": str(SAMPLE_DIR / "market_vols.csv")}
    config = sample_config("run_price_cap.json", tmp_path, market=market)
    assert main(["price-cap", "--config", str(config)]) == 1
    cap = SAMPLE_DIR / "cap_remuneration.json"
    assert capsys.readouterr().err == (
        f"error: {cap}: use_spot_for_first_period needs market.spot_index_rate in the run config\n"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    ("rows", "expected"),
    [
        (
            [{"id": "big", "mean_pvfp": 1e300, "vol_pvfp": 1e299, "pvfp_tsr": 1e-300, "pvfp_tsr_spread": 1.0}],
            "row 'big': cur must be finite, got -inf",
        ),
        (
            [{"id": f"r{i}", "mean_pvfp": 54674, "vol_pvfp": 1074, "pvfp_tsr": 1.7e308, "pvfp_tsr_spread": 1.7e308}
             for i in (1, 2)],
            "total pvfp_tsr must be finite, got inf",
        ),
    ],
    ids=["cur", "total"],
)
def test_replay_of_finite_figures_with_an_infinite_cur_is_rejected_naming_the_file(tmp_path, capsys, rows, expected):
    replay = write_json(tmp_path / "replay.json", rows)
    config = sample_config("run_value_replay.json", tmp_path, replay_pvfp=str(replay))
    code = main(["value", "--config", str(config)])
    assert_one_error_and_no_non_finite_output(code, capsys.readouterr().err, f"{replay}: {expected}", tmp_path / "out")


def test_replay_whose_total_overflows_creates_no_output_directory(tmp_path, capsys):
    rows = [{"id": f"r{i}", "mean_pvfp": 54674, "vol_pvfp": 1074, "pvfp_tsr": 1.7e308, "pvfp_tsr_spread": 1.7e308}
            for i in (1, 2)]
    replay = write_json(tmp_path / "replay.json", rows)
    config = sample_config("run_value_replay.json", tmp_path, replay_pvfp=str(replay))
    assert main(["value", "--config", str(config)]) == 1
    assert capsys.readouterr().err == f"error: {replay}: total pvfp_tsr must be finite, got inf\n"
    assert not (tmp_path / "out").exists()


def test_portfolio_whose_valuation_overflows_stops_with_one_error_naming_it(tmp_path, capsys):
    """A huge premium overflows the variance of the PVFP samples: one error line, no numpy warning, no traceback."""
    portfolio = json.loads((SAMPLE_DIR / "portfolio_1.json").read_text(encoding="utf-8"))
    portfolio["initial_premium"] = 1e306
    huge = write_json(tmp_path / "portfolio_1.json", portfolio)
    config = sample_config("run_value.json", tmp_path, scenarios=50,
                           portfolios=[str(huge), str(SAMPLE_DIR / "portfolio_2.json")])
    code = main(["value", "--config", str(config)])
    expected = "portfolio 'portfolio_1': outside the float range: overflow encountered in square"
    assert_one_error_and_no_non_finite_output(code, capsys.readouterr().err, expected, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_sample_value_run_whose_last_portfolio_makes_a_loss_writes_nothing(tmp_path, capsys):
    """portfolio_1 and portfolio_2 are priced before portfolio_3 fails; neither their samples nor any other file is kept."""
    portfolio = json.loads((SAMPLE_DIR / "portfolio_3.json").read_text(encoding="utf-8"))
    portfolio.update(retained_loss_ratio=1.6, sigma=0.1)
    loss_making = write_json(tmp_path / "portfolio_3.json", portfolio)
    portfolios = [str(SAMPLE_DIR / "portfolio_1.json"), str(SAMPLE_DIR / "portfolio_2.json"), str(loss_making)]
    config = sample_config("run_value.json", tmp_path, scenarios=200, portfolios=portfolios)
    assert main(["value", "--config", str(config)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: portfolio 'portfolio_3': mean PVFP must be > 0")
    assert captured.err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def simulate_config_with_portfolio_1(tmp_path: Path, **fields) -> Path:
    """A 200-scenario ``simulate`` config of the sample ``portfolio_1`` with ``fields`` changed, and ``portfolio_2``."""
    portfolio = json.loads((SAMPLE_DIR / "portfolio_1.json").read_text(encoding="utf-8"))
    portfolio.update(fields)
    changed = write_json(tmp_path / "portfolio_1.json", portfolio)
    return sample_config("run_simulate.json", tmp_path, scenarios=200,
                         portfolios=[str(changed), str(SAMPLE_DIR / "portfolio_2.json")])


def test_year_one_ratio_too_large_to_bin_stops_simulate_naming_the_portfolio_and_writing_none_of_its_files(
    tmp_path, capsys
):
    """A retained loss ratio of 1e18 draws year-1 ratios whose histogram bin index is outside the int64 range."""
    config = simulate_config_with_portfolio_1(tmp_path, retained_loss_ratio=1e18, sigma=0.1)
    code = main(["simulate", "--config", str(config)])
    expected = "portfolio 'portfolio_1': outside the float range: invalid value encountered in cast"
    assert code == 1 and capsys.readouterr().err == f"error: {expected}\n"
    assert not list((tmp_path / "out").glob("portfolio_1_*"))
    assert not (tmp_path / "out" / "simulate_manifest.json").exists()


def test_year_one_ratio_past_the_histogram_bound_stops_simulate_naming_the_portfolio_and_writing_none_of_its_files(
    tmp_path, capsys
):
    """A retained loss ratio of 1e5 would need about a million 0.1-wide bins, almost all of them empty."""
    config = simulate_config_with_portfolio_1(tmp_path, retained_loss_ratio=1e5, sigma=0.1)
    code = main(["simulate", "--config", str(config)])
    run = load_run_config(config)
    spec = load_portfolio(run.portfolio_paths[0], run.horizon, None)
    largest = float(spec.paths(loss.standard_normals(run.scenarios, run.seed))[0][:, 0].max())
    expected = (
        f"portfolio 'portfolio_1': largest year-1 ratio {largest!r} needs more than the histogram's "
        f"{HISTOGRAM_MAX_BINS} bins of width 0.1"
    )
    assert code == 1 and capsys.readouterr().err == f"error: {expected}\n"
    assert not (tmp_path / "out").exists()  # portfolio_1 fails first, so portfolio_2 writes nothing


def count_calls(monkeypatch, fn) -> list[tuple]:
    """Rebind ``fn`` in every protval module that holds it to a wrapper that records the arguments of each call."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "protval" and getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, counted)
    return calls


@pytest.mark.parametrize("command", ["simulate", "value"])
def test_each_portfolio_derives_its_law_and_premiums_once(tmp_path, monkeypatch, command):
    """The spec computes ``mu`` (checking the law) and ``premiums`` when it is built; no command recomputes them."""
    mus = count_calls(monkeypatch, loss.lognormal_mu)
    runoffs = count_calls(monkeypatch, projection.premium_runoff)
    config = sample_config(f"run_{command}.json", tmp_path, scenarios=200)
    assert main([command, "--config", str(config)]) == 0
    portfolios = len(load_run_config(config).portfolio_paths)
    assert len(mus) == len(runoffs) == portfolios


def test_priced_caplet_outside_the_float_range_is_rejected_naming_the_priced_files_and_the_period(tmp_path, capsys):
    curve, vols = tmp_path / "curve.csv", tmp_path / "vols.csv"
    curve.write_text("tenor_years,zero_rate\n35,1e12\n44,1e200\n49,0.03\n", encoding="utf-8")
    vols.write_text("fixing_years,black_vol\n0,0\n10,0\n", encoding="utf-8")
    cap = write_json(tmp_path / "cap.json", {"strike": 1e-300, "index_tenor_years": 0.25, "notionals": [1e300] * 3})
    config = sample_config("run_price_cap.json", tmp_path, market={"curve_csv": str(curve), "vols_csv": str(vols)},
                           cap_spec=str(cap))
    code = main(["price-cap", "--config", str(config)])
    expected = f"{cap}, {curve}, {vols}: period 0: caplet value must be finite, got inf"
    assert_one_error_and_no_non_finite_output(code, capsys.readouterr().err, expected, tmp_path / "out")


def test_replayed_caplet_costs_whose_sum_overflows_are_rejected_naming_the_cap_spec(tmp_path, capsys):
    spec = json.loads((SAMPLE_DIR / "cap_remuneration.json").read_text(encoding="utf-8"))
    spec["replay"]["caplet_costs"] = [0.0] + [-1.7e308] * 6
    cap = write_json(tmp_path / "cap.json", spec)
    config = sample_config("run_price_cap.json", tmp_path, cap_spec=str(cap))
    code = main(["price-cap", "--config", str(config)])
    expected = f"{cap}: stochastic_value must be finite, got -inf"
    assert_one_error_and_no_non_finite_output(code, capsys.readouterr().err, expected, tmp_path / "out")


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
        ("value", "replay.json", (0, "pvfp_tsr"), 0,
         "row 'r1': pvfp_tsr must not be 0: the portfolio is degenerate (PVFP at the risk-free rate is 0)"),
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


@pytest.mark.parametrize(
    ("command", "field_path", "expected"),
    [
        ("price-cap", ("cap_spec",), "'cap_spec' is required for price-cap"),
        ("price-cap", ("market", "curve_csv"), "market.curve_csv is required for this command"),
        ("price-cap", ("market", "vols_csv"), "market.vols_csv is required for this command"),
        ("simulate", ("portfolios",), "'portfolios' is required for this command"),
        ("value", ("portfolios",), "'portfolios' is required for this command"),
        ("value", ("spread_points",), "'spread_points' is required for this command"),
        ("calibrate-spread", ("spread_points",), "'spread_points' is required for this command"),
    ],
    ids=["price_cap_cap_spec", "price_cap_curve_csv", "price_cap_vols_csv", "simulate_portfolios",
         "value_portfolios", "value_spread_points", "calibrate_spread_spread_points"],
)
def test_field_a_command_needs_is_required_naming_the_run_config(tmp_path, capsys, command, field_path, expected):
    """A run config without a field its command needs stops with one line and leaves no output directory."""
    config = write_small_run(tmp_path, replay=False)
    run = json.loads(config.read_text(encoding="utf-8"))
    parent = run
    for key in field_path[:-1]:
        parent = parent[key]
    del parent[field_path[-1]]
    write_json(config, run)

    assert main([command, "--config", str(config)]) == 1
    assert capsys.readouterr().err == f"error: {config}: {expected}\n"
    assert not (tmp_path / "out").exists()


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

    # Directories missing above the output directory are made with it.
    assert main(["calibrate-spread", "--config", str(config), "--out", "new/deeper/relout"]) == 0
    written = sorted(path.name for path in (cwd / "new" / "deeper" / "relout").iterdir())
    assert written == ["calibrate-spread_manifest.json", "spread_function.json"]


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
    """At one seed and scenario count, each ``value`` PVFP sample is the PVFP of the ``simulate`` path, bit for bit."""
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
        discounts = curve.spread_discounts(run.horizon)
        repriced = np.array([pvfp_rows(spec, row[np.newaxis], discounts)[0] for row in scenarios[:, 1:]])
        assert repriced.tobytes() == samples[:, 1].tobytes()


def test_value_samples_never_rise_in_the_order_of_their_year_one_ratios(tmp_path):
    """Sorted by the run's year-1 ratios, in a stable order, each portfolio's seeded samples are nonincreasing.

    A PVFP is a nonincreasing function of its path's year-1 ratio. At 2,500
    scenarios ``value`` prices three slices, so a sample written to another
    draw's row, or slices joined out of order, breaks the order.
    """
    config = sample_config("run_value.json", tmp_path, scenarios=2500)
    assert main(["value", "--config", str(config)]) == 0
    run = load_run_config(config)
    z = loss.standard_normals(run.scenarios, run.seed)
    for path in run.portfolio_paths:
        spec = load_portfolio(path, run.horizon, None)
        samples = np.loadtxt(run.output_dir / f"{spec.id}_pvfp_samples.csv", delimiter=",", skiprows=1)[:, 1]
        order = np.argsort(spec.paths(z)[0][:, 0], kind="stable")
        assert np.all(np.diff(samples[order]) <= 0.0), spec.id


# Probability that a seeded quantile falls outside the bounds below, for each bound checked.
ORDER_STATISTIC_ALPHA = 1e-9
QUANTILE_PROBS = (0.01, 0.05, 0.25, 0.50, 0.75, 0.95, 0.99)


def order_statistic_levels(n: int, p: float) -> tuple[float, float]:
    """Levels (lo, hi) of the law's CDF between which numpy's linear p-quantile of n iid draws falls.

    That quantile lies between the order statistics k + 1 and k + 2 of the
    draws, k = floor((n - 1) * p). The CDF at the j-th of n continuous draws
    follows Beta(j, n + 1 - j), the law of the binomial order statistic, so
    each level holds but with probability ``ORDER_STATISTIC_ALPHA`` / 2.
    """
    k = int((n - 1) * p)
    beta = scipy.stats.beta
    return beta.ppf(ORDER_STATISTIC_ALPHA / 2, k + 1, n - k), beta.ppf(1 - ORDER_STATISTIC_ALPHA / 2, k + 2, n - k - 1)


def year_one_ratios_at(spec: projection.PortfolioSpec, levels) -> np.ndarray:
    """The year-1 ratios exp(mu + sigma * Phi^-1(level)) of the spec's law at ``levels`` of its CDF."""
    return np.exp(spec.mu + spec.sigma * scipy.stats.norm.ppf(levels))


def test_simulate_fan_chart_lies_within_order_statistic_bounds_of_the_exact_quantiles(tmp_path):
    """Each year's seeded quantile lies between f_t(exp(mu + sigma * Phi^-1(lo))) and the same at hi.

    Year t of a path is f_t(sp1), nondecreasing, so the p-quantile of year t
    is f_t of the p-quantile of the lognormal year-1 ratio. This oracle draws
    nothing and builds no matrix.
    """
    config = sample_config("run_simulate.json", tmp_path)
    assert main(["simulate", "--config", str(config)]) == 0
    run = load_run_config(config)
    for spec in cli._load_portfolios(run):
        with (run.output_dir / f"{spec.id}_fan_chart.csv").open(newline="", encoding="utf-8") as handle:
            header, *rows = csv.reader(handle)
        fan = np.array([[float(v) for v in row[1:]] for row in rows])
        assert header[1:] == list(FAN_LABELS) and fan.shape == (run.horizon, len(FAN_PROBS))
        for column, p in zip(fan.T, FAN_PROBS):
            ratios = year_one_ratios_at(spec, order_statistic_levels(run.scenarios, p))
            low, high = loss.reverting_paths(ratios, spec.chronicle, spec.reversion_speed)[0]
            assert np.all((low <= column) & (column <= high)), (spec.id, p)


def test_value_sample_quantiles_lie_within_order_statistic_bounds_of_the_exact_quantiles(tmp_path):
    """Each seeded p-quantile of the PVFP samples lies between g(Phi^-1(1 - lo)) and g(Phi^-1(1 - hi)).

    g(z) is the PVFP of the path from exp(mu + sigma * z), nonincreasing in
    z, so the p-quantile of the PVFP is g(Phi^-1(1 - p)): one ``pvfp_rows``
    call on one path per bound, with no draw and no slicing.
    """
    config = sample_config("run_value.json", tmp_path)
    assert main(["value", "--config", str(config)]) == 0
    run = load_run_config(config)
    riskfree = load_curve(run).spread_discounts(run.horizon)
    for spec in cli._load_portfolios(run):
        samples = np.loadtxt(run.output_dir / f"{spec.id}_pvfp_samples.csv", delimiter=",", skiprows=1)[:, 1]
        for p, quantile in zip(QUANTILE_PROBS, np.quantile(samples, QUANTILE_PROBS)):
            low, high = order_statistic_levels(samples.size, p)
            paths = loss.reverting_paths(year_one_ratios_at(spec, [1 - low, 1 - high]), spec.chronicle,
                                         spec.reversion_speed)[0]
            lowest, highest = pvfp_rows(spec, paths, riskfree)
            assert lowest <= quantile <= highest, (spec.id, p)


@pytest.mark.parametrize("scenarios", [2, 1023, 1024, 1025, 2049])
def test_value_in_slices_gives_the_samples_and_report_of_the_whole_matrix(tmp_path, monkeypatch, scenarios):
    """Around the edges of ``value``'s 1,024-row slices, the outputs are the whole matrix's.

    Each samples file parses back to ``pvfp_rows`` of the whole matrix, float
    by float, and the risk report has the bytes of a run whose one slice is
    the whole matrix.
    """
    risk_reports = []
    for block in (None, scenarios):
        if block is not None:
            monkeypatch.setattr(cli, "_BLOCK_ROWS", block)
        out = tmp_path / f"out_{block}"
        config = sample_config("run_value.json", tmp_path, scenarios=scenarios, output_dir=str(out))
        assert main(["value", "--config", str(config)]) == 0
        risk_reports.append((out / "risk_report.csv").read_bytes())
        run = load_run_config(config)
        z = loss.standard_normals(run.scenarios, run.seed)
        riskfree = load_curve(run).spread_discounts(run.horizon)
        for path in run.portfolio_paths:
            spec = load_portfolio(path, run.horizon, None)
            header, *lines = (out / f"{spec.id}_pvfp_samples.csv").read_text(encoding="utf-8").splitlines()
            assert header == "scenario,pvfp"
            assert [line.split(",")[0] for line in lines] == [str(i) for i in range(scenarios)]
            parsed = np.array([float(line.split(",")[1]) for line in lines])
            assert parsed.tobytes() == pvfp_rows(spec, spec.paths(z)[0], riskfree).tobytes()
    assert risk_reports[0] == risk_reports[1]


def test_value_holds_one_slice_of_paths_per_portfolio_not_the_whole_matrix(tmp_path):
    """At 100,000 x 30 the path matrix alone is 22.9 MiB; one warm ``_value_portfolio`` call peaks below half of it."""
    run = load_run_config(sample_config("run_value.json", tmp_path, scenarios=100_000))
    curve = load_curve(run)
    z = loss.standard_normals(run.scenarios, run.seed)
    spec = load_portfolio(run.portfolio_paths[0], run.horizon, None)
    value = functools.partial(cli._value_portfolio, curve, curve.spread_discounts(run.horizon), run.spread_fn, z, spec)
    value()  # warms the allocator
    tracemalloc.start()
    try:
        value()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < z.size * run.horizon * 8 / 2


def test_simulate_holds_its_year_one_ratios_and_one_slice_of_paths_never_the_matrix(tmp_path):
    """At 10,000 x 30 the path matrix is 2.29 MiB; a warm ``simulate`` run of one portfolio peaks below half of it.

    The run holds O(n) vectors (the draws, the year-1 ratios, the histogram's
    bins, a partitioned copy of the ratios for the fan chart) and one
    256-row slice of paths with its text. A run that builds the matrix
    peaks above it.
    """
    config = sample_config("run_simulate.json", tmp_path, portfolios=[str(SAMPLE_DIR / "portfolio_1.json")])
    run = load_run_config(config)
    assert (run.scenarios, run.horizon) == (10_000, 30)
    argv = ["simulate", "--config", str(config)]
    assert main(argv) == 0  # warms the allocator and the cached row starts of the scenarios file
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * run.scenarios * run.horizon * 8


def test_value_mean_pvfp_is_within_three_standard_errors_of_a_quantile_grid_reference(tmp_path):
    """The seeded ``value`` mean PVFP of each sample portfolio against a reference with no sampling noise.

    The reference values the draws z_i = Phi^-1((i + 1/2) / N), a midpoint
    rule for E[PVFP] over one standard normal, through the same
    ``spec.paths`` and ``pvfp_rows``. At N = 200,000 it lies
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
        reference = pvfp_rows(spec, spec.paths(z)[0], curve.spread_discounts(run.horizon)).mean()
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

    @pytest.mark.parametrize(
        "points",
        [
            [[1e-300, 1e20], [1e-200, 0.1]],  # a = s1 / ln(b * v1 + 1) overflows
            [[1e-320, 1e-5], [1e-310, 2e-5]],  # b * v1 underflows, so ln(b * v1 + 1) is 0
        ],
        ids=["a_overflows", "log_term_underflows"],
    )
    @pytest.mark.parametrize("name", ["run_calibrate.json", "run_value.json", "run_value_replay.json"])
    def test_fit_needing_an_infinite_a_stops_at_load_naming_the_config(self, tmp_path, capsys, points, name):
        """Every command that reads the points stops before any output, not with a = inf or a later error."""
        command = "calibrate-spread" if name == "run_calibrate.json" else "value"
        config = sample_config(name, tmp_path, spread_points=points)
        assert main([command, "--config", str(config)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {config}: spread_points: a must be finite and > 0, got inf\n"
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(("fields", "code"), [({}, 0), ({"retained_loss_ratio": 1e18, "sigma": 0.1}, 1)],
                         ids=["passing", "overflowing"])
def test_main_hands_back_the_callers_numpy_error_settings(tmp_path, capsys, fields, code):
    """main raises on float errors only while it runs, whether the run passes or stops on an overflow."""
    config = simulate_config_with_portfolio_1(tmp_path, **fields)
    before = np.geterr()
    assert main(["simulate", "--config", str(config)]) == code
    assert np.geterr() == before


def test_main_builds_its_parser_once_and_leaves_it_unchanged(tmp_path):
    config = write_json(tmp_path / "run.json", {"spread_points": [[0.1, 0.02], [0.2, 0.03]]})
    parser = build_parser()
    before = parser.format_help()
    assert main(["calibrate-spread", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    assert main(["calibrate-spread", "--config", str(config), "--out", str(tmp_path / "again")]) == 0
    assert main(["calibrate-spread", "--config", str(config)]) == 1
    assert build_parser() is parser
    assert parser.format_help() == before
    written = [(tmp_path / d / "spread_function.json").read_bytes() for d in ("out", "again")]
    assert written[0] == written[1]
