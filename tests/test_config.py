"""Configuration ingestion: file formats, diagnostics, invariants."""

from __future__ import annotations

import csv
import json
from pathlib import Path

import pytest

from protval.cli import main
from protval.config import (
    ConfigError,
    load_chronicle,
    load_portfolio,
    load_run_config,
    load_weight_matrix,
)

from .test_cli import SAMPLE_DIR, make_portfolio_file, sample_config, write_json


def write_chronicle(path: Path, rows) -> Path:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["year", "expected_sp"])
        writer.writerows(rows)
    return path


class TestRunConfig:
    def test_scenario_floor(self, tmp_path):
        make_portfolio_file(tmp_path)
        config = write_json(tmp_path / "run.json", {
            "portfolios": ["p1.json"], "scenarios": 1, "output_dir": "out",
        })
        with pytest.raises(ConfigError, match="scenarios"):
            load_run_config(config)

    def test_referenced_files_must_exist(self, tmp_path):
        config = write_json(tmp_path / "run.json", {
            "portfolios": ["missing.json"], "output_dir": "out",
        })
        with pytest.raises(ConfigError, match="missing.json"):
            load_run_config(config)

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_run_config(tmp_path / "nope.json")

    def test_flag_fills_omitted_setting(self, tmp_path):
        make_portfolio_file(tmp_path)
        config = write_json(tmp_path / "run.json", {
            "portfolios": ["p1.json"], "output_dir": "out",
        })
        assert load_run_config(config, seed=5).seed == 5
        assert load_run_config(config).seed == 0

    def test_defaults(self, tmp_path):
        make_portfolio_file(tmp_path)
        config = write_json(tmp_path / "run.json", {
            "portfolios": ["p1.json"], "output_dir": "out",
        })
        loaded = load_run_config(config)
        assert loaded.scenarios == 10_000
        assert loaded.horizon == 30


class TestChronicle:
    def test_years_must_be_contiguous_from_one(self, tmp_path):
        path = write_chronicle(tmp_path / "c.csv", [(1, 0.8), (3, 0.9)])
        with pytest.raises(ConfigError, match="1..H"):
            load_chronicle(path)

    def test_fractional_year_is_rejected_naming_the_file(self, tmp_path):
        path = write_chronicle(tmp_path / "c.csv", [(1.5, 0.8), (2, 0.9)])
        with pytest.raises(ConfigError, match=r"c\.csv: 'year' column must run 1\.\.H in whole years"):
            load_chronicle(path)

    def test_loads_in_year_order(self, tmp_path):
        path = write_chronicle(tmp_path / "c.csv", [(1, 0.8), (2, 0.9), (3, 1.0)])
        assert list(load_chronicle(path)) == [0.8, 0.9, 1.0]

    def test_portfolio_with_chronicle_csv(self, tmp_path):
        write_chronicle(tmp_path / "c.csv", [(1, 1.04), (2, 1.05)])
        path = make_portfolio_file(tmp_path, chronicle_csv="c.csv", retained_loss_ratio=1.04)
        spec = load_portfolio(path, 2, None)
        assert spec.chronicle == (1.04, 1.05)
        assert spec.horizon == 2

    @pytest.mark.parametrize("horizon", [1, 3])
    def test_chronicle_of_another_length_than_the_horizon_is_rejected(self, tmp_path, horizon):
        write_chronicle(tmp_path / "c.csv", [(1, 1.04), (2, 1.05)])
        path = make_portfolio_file(tmp_path, chronicle_csv="c.csv", retained_loss_ratio=1.04)
        message = rf"p1\.json: the chronicle covers 2 years, the run horizon is {horizon}$"
        with pytest.raises(ConfigError, match=message):
            load_portfolio(path, horizon, None)

    def test_flat_chronicle_fallback_uses_the_retained_ratio(self, tmp_path):
        path = make_portfolio_file(tmp_path, retained_loss_ratio=0.7)
        spec = load_portfolio(path, 4, None)
        assert spec.chronicle == (0.7, 0.7, 0.7, 0.7)


class TestWeights:
    def test_packaged_default_loads_and_scores(self):
        weights = load_weight_matrix(SAMPLE_DIR / "weights_illustrative.json")
        assert weights["portfolio_age"]["ge_4y"] > 0.0

    def test_incomplete_file_is_diagnosed(self, tmp_path):
        path = write_json(tmp_path / "w.json", {"portfolio_age": {"lt_1y": 0.3}})
        with pytest.raises(ConfigError, match=r"w\.json: weight matrix is missing cell \('portfolio_age', 'lt_4y'\)"):
            load_weight_matrix(path)

    @pytest.mark.parametrize("row", [3, None, "strong", [1.0]])
    def test_row_that_is_not_an_object_is_rejected(self, tmp_path, row):
        payload = json.loads((SAMPLE_DIR / "weights_illustrative.json").read_text(encoding="utf-8"))
        payload["homogeneity"] = row
        path = write_json(tmp_path / "w.json", payload)
        with pytest.raises(ConfigError, match=r"w\.json: field 'homogeneity' must be an object, got "):
            load_weight_matrix(path)


class TestPortfolioDiagnostics:
    def test_missing_field_names_the_file(self, tmp_path):
        path = write_json(tmp_path / "p.json", {"id": "p"})
        with pytest.raises(ConfigError, match=r"p\.json.*retained_loss_ratio"):
            load_portfolio(path, 30, None)

    def test_bad_renewal_mode(self, tmp_path):
        path = make_portfolio_file(tmp_path, renewal={"mode": "perpetual"})
        with pytest.raises(ConfigError, match="renewal.mode"):
            load_portfolio(path, 30, None)

    @pytest.mark.parametrize("speed", [0.0, 1.5])
    def test_out_of_range_reversion_speed_names_the_file(self, tmp_path, speed):
        path = make_portfolio_file(tmp_path, reversion_speed=speed)
        with pytest.raises(ConfigError, match=r"p1\.json: reversion speed must be in \(0, 1\]"):
            load_portfolio(path, 30, None)


class TestSampleRuns:
    def test_sample_simulate_run_including_scored_portfolio(self, tmp_path):
        config = sample_config("run_simulate.json", tmp_path, scenarios=300)
        assert main(["simulate", "--config", str(config)]) == 0
        out = tmp_path / "out"
        for name in ("portfolio_1", "portfolio_scored"):
            assert (out / f"{name}_scenarios.csv").is_file()
            assert (out / f"{name}_fan_chart.csv").is_file()
            assert (out / f"{name}_histogram.csv").is_file()

    def test_sample_value_run(self, tmp_path, capsys):
        config = sample_config("run_value.json", tmp_path, scenarios=300)
        assert main(["value", "--config", str(config)]) == 0
        report = (tmp_path / "out" / "risk_report.csv").read_text()
        assert report.startswith("portfolio,mean_pvfp,vol_pvfp,spread,pvfp_tsr_spread,pvfp_tsr,cur")
        assert "TOTAL" in report
