"""Configuration ingestion: file formats, diagnostics, invariants."""

from __future__ import annotations

import csv
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from protval.cli import main
from protval.cli import _load_portfolios
from protval.config import (
    ConfigError,
    _resolve,
    load_chronicle,
    load_portfolio,
    load_run_config,
    load_weight_matrix,
    naming,
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

    @pytest.mark.parametrize(
        "loader", [load_run_config, lambda p: load_portfolio(p, 30, None), load_chronicle],
        ids=["run_config", "portfolio", "chronicle"],
    )
    @pytest.mark.parametrize("kind", ["missing", "directory", "below_a_file"])
    def test_path_that_names_no_file_is_not_found(self, tmp_path, loader, kind):
        """A missing path, a directory and a path through a file all read as one 'file not found'."""
        path = tmp_path / "input"
        if kind == "directory":
            path.mkdir()
        elif kind == "below_a_file":
            path.write_text("{}", encoding="utf-8")
            path = path / "input"
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: file not found$"):
            loader(path)

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


class TestNaming:
    def test_float_error_is_named_as_outside_the_float_range(self):
        with pytest.raises(ConfigError, match=r"^p\.json: year 2: outside the float range: overflow encountered in "):
            with np.errstate(over="raise"), naming("p.json", "year 2: "):
                np.float64(1e308) * 10.0

    def test_config_error_passes_unchanged(self):
        error = ConfigError("other.json: bad field")
        with pytest.raises(ConfigError) as raised:
            with naming("p.json"):
                raise error
        assert raised.value is error


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


    @pytest.mark.parametrize(
        ("text", "message"),
        [
            ("year,expected_sp\n1,0.8\n2\n", "line 3: non-numeric year/expected_sp"),
            ("year,expected_sp\n1,0.8\n\n2,x\n", "line 3: non-numeric year/expected_sp"),
            ("year,expected_sp\n\n\n1,0.8\n2,inf\n", "line 3: non-finite year/expected_sp"),
            ("year,sp\n1,0.8\n", "expected CSV header with columns 'year','expected_sp'"),
            ("\nyear,expected_sp\n1,0.8\n", "expected CSV header with columns 'year','expected_sp'"),
            ("", "expected CSV header with columns 'year','expected_sp'"),
            ("year,expected_sp\n\n", "no data rows"),
        ],
        ids=["short_row", "blank_line_not_counted", "blank_lines_then_inf", "missing_column", "blank_header",
             "empty", "blank_rows_only"],
    )
    def test_csv_messages_name_the_file_and_the_line(self, tmp_path, text, message):
        """Line numbers count the header as line 1 and skip blank lines, as ``csv.DictReader`` counts rows."""
        path = tmp_path / "c.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError, match=f"^{re.escape(f'{path}: {message}')}$"):
            load_chronicle(path)

    def test_column_named_twice_is_read_from_its_last_place(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("year,expected_sp,expected_sp\n1,x,0.8\n2,,0.9,extra\n", encoding="utf-8")
        assert load_chronicle(path) == (0.8, 0.9)


def missing_chronicle_path(portfolio: Path) -> str:
    """The path a portfolio's ``chronicle_csv`` resolved to, read from the not-found error that names it."""
    with pytest.raises(ConfigError, match=": file not found$") as exc:
        load_portfolio(portfolio, 30, None)
    return str(exc.value).removesuffix(": file not found")


class TestReferences:
    """A relative reference resolves as ``Path.resolve()`` does, symlinks and '..' included."""

    @pytest.fixture
    def tree(self, tmp_path):
        real = tmp_path / "real"
        (real / "sub").mkdir(parents=True)
        (real / "p.json").write_text("{}", encoding="utf-8")
        (real / "sub" / "q.json").write_text("{}", encoding="utf-8")
        (tmp_path / "elsewhere.json").write_text("{}", encoding="utf-8")
        os.symlink(tmp_path / "elsewhere.json", real / "file_link.json")
        os.symlink(real / "sub", real / "dir_link")
        os.symlink(tmp_path / "nowhere.json", real / "dangling.json")
        return real

    @pytest.mark.parametrize(
        "value",
        ["p.json", "./p.json", "missing.json", "file_link.json", "dangling.json", "dir_link", "sub/q.json",
         "dir_link/../p.json", "../elsewhere.json", "sub/../p.json", ".", "..", "..."],
    )
    def test_each_reference_resolves_as_path_resolve(self, tree, value):
        given = tree / "run.json"
        assert _resolve(given, "f", value) == (tree / value).resolve()

    def test_relative_file_path_resolves_from_the_working_directory_of_each_call(self, tree, monkeypatch):
        monkeypatch.chdir(tree)
        assert _resolve(Path("run.json"), "f", "p.json") == tree.resolve() / "p.json"
        monkeypatch.chdir(tree / "sub")
        assert _resolve(Path("run.json"), "f", "p.json") == (tree / "sub").resolve() / "p.json"

    def test_bare_file_name_that_is_no_symlink_needs_no_path_resolve_after_its_directory(self, tree, monkeypatch):
        real, elsewhere = tree.resolve(), (tree.parent / "elsewhere.json").resolve()
        resolved = []
        real_resolve = Path.resolve

        def counting(self, strict=False):
            resolved.append(self.name)
            return real_resolve(self, strict)

        monkeypatch.setattr(Path, "resolve", counting)
        assert _resolve(tree / "run.json", "f", "p.json") == real / "p.json"
        assert _resolve(tree / "run.json", "f", "missing.json") == real / "missing.json"
        assert _resolve(tree / "other.json", "f", "sub") == real / "sub"
        assert resolved == ["real"]
        assert _resolve(tree / "run.json", "f", "file_link.json") == elsewhere
        assert resolved == ["real", "file_link.json"]

    def test_symlinked_portfolio_file_resolves_to_its_target(self, tmp_path):
        run, store = tmp_path / "run", tmp_path / "store"
        run.mkdir()
        store.mkdir()
        real = make_portfolio_file(store)
        os.symlink(real, run / "p1.json")
        config = write_json(run / "run.json", {"portfolios": ["p1.json"], "output_dir": "out"})
        assert load_run_config(config).portfolio_paths == ((run / "p1.json").resolve(),) == (real.resolve(),)

    def test_dot_dot_chronicle_reference_resolves_from_the_portfolio_directory(self, tmp_path):
        (tmp_path / "sub").mkdir()
        portfolio = make_portfolio_file(tmp_path / "sub", chronicle_csv="../missing.csv")
        expected = str((tmp_path / "sub" / "../missing.csv").resolve())
        assert missing_chronicle_path(portfolio) == expected == str(tmp_path / "missing.csv")

    def test_absolute_portfolio_path_through_a_symlinked_directory(self, tmp_path):
        """The run keeps an absolute reference as given, so its chronicle resolves through the symlink."""
        (tmp_path / "real").mkdir()
        os.symlink(tmp_path / "real", tmp_path / "link")
        portfolio = make_portfolio_file(tmp_path / "real", chronicle_csv="chron.csv")
        write_chronicle(tmp_path / "real" / "chron.csv", [(t, 0.8) for t in range(1, 31)])
        config = write_json(tmp_path / "run.json", {
            "portfolios": [str(tmp_path / "link" / portfolio.name)], "output_dir": "out",
        })
        run = load_run_config(config)
        assert run.portfolio_paths == (tmp_path / "link" / portfolio.name,)
        assert _load_portfolios(run)[0].chronicle == (0.8,) * 30
        (tmp_path / "real" / "chron.csv").unlink()
        linked = tmp_path / "link" / portfolio.name
        assert missing_chronicle_path(linked) == str(tmp_path / "real" / "chron.csv")
        with pytest.raises(ConfigError, match=re.escape(f"{tmp_path / 'real' / 'chron.csv'}: file not found")):
            _load_portfolios(run)

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
