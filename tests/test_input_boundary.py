"""Input boundary: a bad value in any numeric input field ends in one error line naming the file and the field.

Every numeric field of the run config, portfolio, cap spec, replay rows and
weight matrix, and every value column of the curve, vol and chronicle CSVs,
is given a value of the wrong kind (null, a string, a boolean or an array;
NaN or ±inf as CSV text) or one outside its range; a weight-matrix row is
also given a value that is not an object, or is left out. Every JSON object
is also given a key that no loader reads. The command must exit 1 with a
single ``error:`` line that names the file and the field, and never raise;
a key that starts with '_' is a comment and is ignored. Every input file is
also given a byte that is not UTF-8, and the error line must name the file.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path
from typing import Any, NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from protval.cli import main

from .test_cli import MODERATE_CRITERIA, SAMPLE_DIR, make_portfolio_file, write_json, write_market_files

# Small runs, so that a few examples per field keep the whole file to a few seconds.
EXAMPLES = 5


def below(bound: float) -> st.SearchStrategy[float]:
    return st.floats(max_value=bound, allow_nan=False, allow_infinity=False)


def above(bound: float) -> st.SearchStrategy[float]:
    return st.floats(min_value=bound, allow_nan=False, allow_infinity=False)


NEGATIVE = below(-5e-324)
NONPOSITIVE = below(0.0)
ABOVE_ONE = st.floats(min_value=1.0, exclude_min=True, allow_infinity=False)
UNIT_INTERVAL_OUT = st.one_of(NEGATIVE, above(1.0))  # outside [0, 1)

# Values of the wrong kind for a JSON number, an integer and an array of numbers.
NOT_A_NUMBER = st.one_of(st.none(), st.text(max_size=4), st.booleans(), st.lists(st.integers(0, 9), max_size=2))
NOT_AN_INTEGER = st.one_of(NOT_A_NUMBER, st.sampled_from([0.5, 2.25, -1.5]))
NOT_AN_ARRAY = st.one_of(st.none(), st.text(max_size=4), st.booleans(), below(1e9))
NOT_AN_OBJECT = st.one_of(NOT_AN_ARRAY, st.lists(st.integers(0, 9), max_size=2))
# CSV cells that are not a finite number; no comma or quote, so the row keeps its columns.
NOT_FINITE_TEXT = st.one_of(
    st.sampled_from(["nan", "NaN", "inf", "-inf", "Infinity", "-Infinity", "1e999"]),
    st.text(alphabet="abxyz ", max_size=4),
)


class JsonField(NamedTuple):
    command: str
    file: str
    path: tuple  # keys (and array indices) from the top of the file to the field
    variant: str  # which small run to start from, see ``write_run``
    out_of_range: st.SearchStrategy | None
    wrong_kind: st.SearchStrategy = NOT_A_NUMBER

    @property
    def name(self) -> str:
        return next(k for k in reversed(self.path) if isinstance(k, str))


class CsvColumn(NamedTuple):
    command: str
    file: str
    column: int
    out_of_range: st.SearchStrategy | None


JSON_FIELDS = {
    "run.tax_rate": JsonField("value", "run.json", ("market", "tax_rate"), "portfolio", UNIT_INTERVAL_OUT),
    "run.spot_index_rate": JsonField(
        "price-cap", "run.json", ("market", "spot_index_rate"), "cap", None, NOT_A_NUMBER.filter(lambda v: v is not None)
    ),
    "run.scenarios": JsonField("value", "run.json", ("scenarios",), "portfolio", st.integers(max_value=1), NOT_AN_INTEGER),
    "run.seed": JsonField("value", "run.json", ("seed",), "portfolio", st.integers(max_value=-1), NOT_AN_INTEGER),
    "run.horizon": JsonField("value", "run.json", ("horizon",), "portfolio", st.integers(max_value=0), NOT_AN_INTEGER),
    "run.spread_points": JsonField("value", "run.json", ("spread_points",), "portfolio", None, NOT_AN_ARRAY),
    "run.spread_point": JsonField("value", "run.json", ("spread_points", 1, 0), "portfolio", NONPOSITIVE),
    "portfolio.initial_premium": JsonField("value", "p1.json", ("initial_premium",), "portfolio", NEGATIVE),
    "portfolio.lapse_rate": JsonField("value", "p1.json", ("renewal", "lapse_rate"), "portfolio", UNIT_INTERVAL_OUT),
    "portfolio.mean_remaining_term_months": JsonField(
        "value", "p1.json", ("renewal", "mean_remaining_term_months"), "fixed_term", NONPOSITIVE
    ),
    "portfolio.profit_share_rate": JsonField(
        "value", "p1.json", ("profit_share_rate",), "portfolio", st.one_of(NEGATIVE, ABOVE_ONE)
    ),
    "portfolio.tax_rate": JsonField("value", "p1.json", ("tax_rate",), "portfolio", UNIT_INTERVAL_OUT),
    "portfolio.retained_loss_ratio": JsonField("value", "p1.json", ("retained_loss_ratio",), "portfolio", NONPOSITIVE),
    "portfolio.retained_loss_ratio_scored": JsonField(
        "value", "p1.json", ("retained_loss_ratio",), "criteria", NONPOSITIVE
    ),
    # Above 1e8, 0.5 * sigma * sigma >= 2**52, so ln(0.8) - 0.5 * sigma * sigma rounds to -0.5 * sigma * sigma
    # and the implied mean is exp(0) = 1, not 0.8; above 1.9e154 it overflows, so the law has no finite mean.
    "portfolio.sigma": JsonField(
        "value", "p1.json", ("sigma",), "portfolio", st.one_of(NEGATIVE, above(1e8)),
        NOT_A_NUMBER.filter(lambda v: v is not None),
    ),
    "portfolio.criteria": JsonField("value", "p1.json", ("criteria",), "portfolio", None, NOT_AN_OBJECT),
    "portfolio.reversion_speed": JsonField(
        "simulate", "p1.json", ("reversion_speed",), "portfolio", st.one_of(NONPOSITIVE, ABOVE_ONE)
    ),
    "portfolio.horizon_years": JsonField(
        "value", "p1.json", ("horizon_years",), "horizon_years", st.integers(max_value=0), NOT_AN_INTEGER
    ),
    "portfolio.chronicle": JsonField("value", "p1.json", ("chronicle",), "chronicle", None, NOT_AN_ARRAY),
    "portfolio.chronicle_value": JsonField("simulate", "p1.json", ("chronicle", 1), "chronicle", NONPOSITIVE),
    "portfolio.portfolio_age_years": JsonField(
        "value", "p1.json", ("criteria", "portfolio_age_years"), "criteria", NEGATIVE
    ),
    "cap.strike": JsonField("price-cap", "cap.json", ("strike",), "cap", NONPOSITIVE),
    "cap.notionals": JsonField("price-cap", "cap.json", ("notionals",), "cap", None, NOT_AN_ARRAY),
    "cap.notional": JsonField("price-cap", "cap.json", ("notionals", 1), "cap", NEGATIVE),
    "cap.index_tenor_years": JsonField("price-cap", "cap.json", ("index_tenor_years",), "cap", NONPOSITIVE),
    "cap.accrual_years": JsonField("price-cap", "cap.json", ("accrual_years",), "cap", NONPOSITIVE),
    "cap.strikes": JsonField("price-cap", "cap.json", ("strikes",), "cap", None, NOT_AN_ARRAY),
    "cap.per_period_strike": JsonField("price-cap", "cap.json", ("strikes", 1), "cap", NONPOSITIVE),
    "cap.booked_flows_pv": JsonField("price-cap", "cap.json", ("booked_flows_pv",), "cap", None),
    "cap.caplet_costs": JsonField("price-cap", "cap.json", ("replay", "caplet_costs"), "cap_replay", None, NOT_AN_ARRAY),
    "cap.caplet_cost": JsonField("price-cap", "cap.json", ("replay", "caplet_costs", 0), "cap_replay", None),
    "cap.deterministic_cost": JsonField(
        "price-cap", "cap.json", ("replay", "deterministic_cost"), "cap_replay", None
    ),
    "replay.mean_pvfp": JsonField("value", "replay.json", (0, "mean_pvfp"), "replay", NONPOSITIVE),
    "replay.vol_pvfp": JsonField("value", "replay.json", (0, "vol_pvfp"), "replay", NEGATIVE),
    "replay.pvfp_tsr": JsonField("value", "replay.json", (0, "pvfp_tsr"), "replay", st.just(0)),
    "replay.pvfp_tsr_spread": JsonField("value", "replay.json", (0, "pvfp_tsr_spread"), "replay", None),
    "weights.criterion": JsonField("value", "weights.json", ("homogeneity",), "criteria", None, NOT_AN_OBJECT),
    "weights.age_cell": JsonField("value", "weights.json", ("portfolio_age", "lt_4y"), "criteria", NONPOSITIVE),
    "weights.rating_cell": JsonField("value", "weights.json", ("moral_hazard", "weak"), "criteria", NONPOSITIVE),
}

CSV_COLUMNS = {
    "curve.tenor_years": CsvColumn("value", "curve.csv", 0, NEGATIVE),
    "curve.zero_rate": CsvColumn("value", "curve.csv", 1, below(-1.0)),
    "vols.fixing_years": CsvColumn("price-cap", "vols.csv", 0, None),
    "vols.black_vol": CsvColumn("price-cap", "vols.csv", 1, NEGATIVE),
    "chronicle.year": CsvColumn("simulate", "chronicle.csv", 0, st.sampled_from([0, -1, 3, 1.5])),
    "chronicle.expected_sp": CsvColumn("simulate", "chronicle.csv", 1, NONPOSITIVE),
}


def write_run(directory: Path, variant: str) -> Path:
    """A small run of the given variant: its input files and its config."""
    write_market_files(directory)
    shutil.copyfile(SAMPLE_DIR / "weights_illustrative.json", directory / "weights.json")
    (directory / "chronicle.csv").write_text("year,expected_sp\n1,0.8\n2,0.85\n", encoding="utf-8")
    portfolio: dict[str, Any] = {"chronicle_csv": "chronicle.csv"}
    if variant == "fixed_term":
        portfolio["renewal"] = {"mode": "fixed_term", "mean_remaining_term_months": 18.0}
    elif variant == "criteria":
        portfolio.update(sigma=None, criteria=MODERATE_CRITERIA)
    elif variant == "chronicle":
        portfolio.update(chronicle_csv=None, chronicle=[0.8, 0.85])
    elif variant == "horizon_years":
        portfolio.update(chronicle_csv=None, horizon_years=2)
    make_portfolio_file(directory, **portfolio)
    cap = {
        "strike": 0.019,
        "index_tenor_years": 3,
        "accrual_years": 1.0,
        "notionals": [1000.0, 800.0, 600.0],
        "strikes": [0.019, 0.021, 0.018],
        "use_spot_for_first_period": True,
        "booked_flows_pv": 1.5,
    }
    if variant == "cap_replay":
        cap["replay"] = {"caplet_costs": [-1.0, -2.0, -3.0], "deterministic_cost": -4.0}
    write_json(directory / "cap.json", cap)
    write_json(directory / "replay.json", [
        {"id": "r1", "mean_pvfp": 54674, "vol_pvfp": 1074, "pvfp_tsr": 54674, "pvfp_tsr_spread": 53265},
    ])
    run: dict[str, Any] = {
        "market": {"curve_csv": "curve.csv", "vols_csv": "vols.csv", "tax_rate": 0.1, "spot_index_rate": 0.02},
        "cap_spec": "cap.json",
        "weights": "weights.json",
        "scenarios": 20,
        "seed": 1,
        "horizon": 2,
        "spread_points": [[0.10, 0.02], [0.20, 0.03]],
        "output_dir": "out",
    }
    if variant == "replay":
        run["replay_pvfp"] = "replay.json"
    else:
        run["portfolios"] = ["p1.json"]
    return write_json(directory / "run.json", run)


def run_command(command: str, config: Path) -> tuple[int, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([command, "--config", str(config)])
    return code, stderr.getvalue()


def assert_one_named_error(code: int, err: str, bad_file: Path, field: str) -> None:
    lines = err.splitlines()
    assert code == 1, err
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    assert str(bad_file.resolve()) in err, err
    assert field in err or field.replace("_", " ") in err, err
    assert "Traceback" not in err


@pytest.mark.parametrize("case", JSON_FIELDS.values(), ids=JSON_FIELDS.keys())
@settings(max_examples=EXAMPLES, deadline=None)
@given(data=st.data())
def test_bad_json_number_is_rejected_naming_file_and_field(case: JsonField, data):
    kinds = [case.wrong_kind] + ([case.out_of_range] if case.out_of_range is not None else [])
    value = data.draw(st.one_of(kinds), label=case.name)
    with tempfile.TemporaryDirectory() as scratch:
        directory = Path(scratch)
        config = write_run(directory, case.variant)
        target = directory / case.file
        payload = json.loads(target.read_text(encoding="utf-8"))
        parent = payload
        for key in case.path[:-1]:
            parent = parent[key]
        parent[case.path[-1]] = value
        write_json(target, payload)
        assert_one_named_error(*run_command(case.command, config), target, case.name)


@pytest.mark.parametrize("path", [("litigation",), ("litigation", "strong"), ("portfolio_age", "ge_4y")])
def test_missing_weight_criterion_or_bucket_is_rejected_naming_file_and_key(tmp_path, path):
    config = write_run(tmp_path, "criteria")
    target = tmp_path / "weights.json"
    payload = json.loads(target.read_text(encoding="utf-8"))
    parent = payload
    for key in path[:-1]:
        parent = parent[key]
    del parent[path[-1]]
    write_json(target, payload)
    assert_one_named_error(*run_command("value", config), target, path[-1])


@pytest.mark.parametrize("command", ["simulate", "value"])
@pytest.mark.parametrize(
    ("variant", "file", "changes", "field"),
    [
        ("portfolio", "p1.json", {"sigma": None}, "sigma"),
        ("criteria", "p1.json", {"criteria": {**MODERATE_CRITERIA, "litigation": "severe"}}, "litigation"),
        ("criteria", "run.json", {"weights": None}, "criteria"),
        ("portfolio", "p1.json", {"chronicle": [0.8, 0.85]}, "chronicle"),
        ("portfolio", "p1.json", {"horizon_years": "abc"}, "horizon_years"),
    ],
    ids=["neither_sigma_nor_criteria", "bad_criteria_level", "criteria_without_weights",
         "chronicle_and_chronicle_csv", "horizon_years_and_chronicle_csv"],
)
def test_unresolvable_portfolio_stops_naming_the_portfolio_before_any_output(
    tmp_path, command, variant, file, changes, field
):
    """A portfolio whose sigma cannot be resolved, or that names two chronicle sources; a None change deletes a key."""
    config = write_run(tmp_path, variant)
    target = tmp_path / file
    payload = {**json.loads(target.read_text(encoding="utf-8")), **changes}
    write_json(target, {k: v for k, v in payload.items() if v is not None})
    assert_one_named_error(*run_command(command, config), tmp_path / "p1.json", field)
    assert not (tmp_path / "out").exists()


# Every JSON object a loader reads: (command, file, keys from the top of the file to it, variant of ``write_run``).
JSON_OBJECTS = {
    "run": ("value", "run.json", (), "portfolio"),
    "run.market": ("value", "run.json", ("market",), "portfolio"),
    "portfolio": ("value", "p1.json", (), "portfolio"),
    "portfolio.renewal.tacit_renewal": ("value", "p1.json", ("renewal",), "portfolio"),
    "portfolio.renewal.fixed_term": ("value", "p1.json", ("renewal",), "fixed_term"),
    "portfolio.criteria": ("value", "p1.json", ("criteria",), "criteria"),
    "cap": ("price-cap", "cap.json", (), "cap"),
    "cap.replay": ("price-cap", "cap.json", ("replay",), "cap_replay"),
    "replay.row": ("value", "replay.json", (0,), "replay"),
    "weights": ("value", "weights.json", (), "criteria"),
    "weights.age_criterion": ("value", "weights.json", ("portfolio_age",), "criteria"),
    "weights.rating_criterion": ("value", "weights.json", ("litigation",), "criteria"),
}


def add_key(directory: Path, file: str, keys: tuple, key: str, value: Any) -> Path:
    """Set ``key`` to ``value`` in the object at ``keys`` in JSON ``file``; return the file."""
    target = directory / file
    payload = json.loads(target.read_text(encoding="utf-8"))
    parent = payload
    for k in keys:
        parent = parent[k]
    parent[key] = value
    write_json(target, payload)
    return target


@pytest.mark.parametrize("case", JSON_OBJECTS.values(), ids=JSON_OBJECTS.keys())
def test_unknown_key_is_rejected_naming_file_and_key(tmp_path, case):
    command, file, keys, variant = case
    config = write_run(tmp_path, variant)
    # A bucket of the wrong criterion is as unknown as a misspelt key.
    key = "strong" if keys == ("portfolio_age",) else "reversion_sped"
    target = add_key(tmp_path, file, keys, key, 0.3)
    code, err = run_command(command, config)
    assert_one_named_error(code, err, target, key)
    assert "unknown field '" in err, err


@pytest.mark.parametrize("case", JSON_OBJECTS.values(), ids=JSON_OBJECTS.keys())
def test_key_starting_with_underscore_is_a_comment(tmp_path, case):
    command, file, keys, variant = case
    config = write_run(tmp_path, variant)
    add_key(tmp_path, file, keys, "_comment", "a note")
    code, err = run_command(command, config)
    assert code == 0, err


@pytest.mark.parametrize("case", CSV_COLUMNS.values(), ids=CSV_COLUMNS.keys())
@settings(max_examples=EXAMPLES, deadline=None)
@given(data=st.data())
def test_bad_csv_value_is_rejected_naming_file_and_column(case: CsvColumn, data):
    kinds = [NOT_FINITE_TEXT] + ([case.out_of_range.map(repr)] if case.out_of_range is not None else [])
    text = data.draw(st.one_of(kinds), label="cell")
    with tempfile.TemporaryDirectory() as scratch:
        directory = Path(scratch)
        config = write_run(directory, "cap" if case.command == "price-cap" else "portfolio")
        target = directory / case.file
        header, first, *rest = target.read_text(encoding="utf-8").splitlines()
        cells = first.split(",")
        cells[case.column] = text
        target.write_text("\n".join([header, ",".join(cells), *rest]) + "\n", encoding="utf-8")
        assert_one_named_error(*run_command(case.command, config), target, header.split(",")[case.column])


# Every input file, with a command and a variant of ``write_run`` that reads it.
INPUT_FILES = {
    "run": ("value", "run.json", "portfolio"),
    "portfolio": ("value", "p1.json", "portfolio"),
    "cap": ("price-cap", "cap.json", "cap"),
    "weights": ("value", "weights.json", "criteria"),
    "replay": ("value", "replay.json", "replay"),
    "curve": ("value", "curve.csv", "portfolio"),
    "vols": ("price-cap", "vols.csv", "cap"),
    "chronicle": ("simulate", "chronicle.csv", "portfolio"),
}


@pytest.mark.parametrize("case", INPUT_FILES.values(), ids=INPUT_FILES.keys())
def test_file_that_is_not_utf8_is_rejected_naming_the_file(tmp_path, case):
    command, file, variant = case
    config = write_run(tmp_path, variant)
    target = tmp_path / file
    raw = target.read_bytes()
    cut = raw.index(b"\n") + 1  # a 0xff byte at the start of the second line
    target.write_bytes(raw[:cut] + b"\xff" + raw[cut:])
    assert_one_named_error(*run_command(command, config), target, "not UTF-8")
    assert not (tmp_path / "out").exists()
