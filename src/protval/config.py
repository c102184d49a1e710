"""Run configuration and input-file ingestion.

Files are JSON for specs and weights, CSV for curves and chronicles, UTF-8
with decimal points. Relative paths inside a config or portfolio file
resolve against that file's directory. Parse and validation problems raise
``ConfigError`` with the offending file and field.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Any, NoReturn

import numpy as np

from .cap import CapSpec
from .curves import MarketData, load_vol_structure, load_zero_curve
from .errors import ConfigError
from .loss import (
    DEFAULT_HORIZON,
    DEFAULT_REVERSION_SPEED,
    DEFAULT_SCENARIOS,
    RiskCriteria,
    WeightMatrix,
)
from .projection import FixedTerm, PortfolioSpec, TacitRenewal


@dataclass(frozen=True)
class CapInputs:
    """Cap spec plus the report-level figures that are direct inputs.

    ``replay_caplet_costs``/``replay_deterministic_cost`` carry externally
    booked per-period figures (insurer costs, negative); when present the
    report recomputes only the aggregate identities instead of pricing.
    """

    spec: CapSpec
    booked_flows_pv: float = 0.0
    replay_caplet_costs: tuple[float, ...] | None = None
    replay_deterministic_cost: float | None = None

    @property
    def is_replay(self) -> bool:
        return self.replay_caplet_costs is not None


@dataclass(frozen=True)
class ReplayPvfpRow:
    """Pre-computed PVFP figures for one portfolio (replay mode)."""

    id: str
    mean_pvfp: float
    vol_pvfp: float
    pvfp_tsr: float
    pvfp_tsr_spread: float


@dataclass(frozen=True)
class RunConfig:
    """One valuation run, as described by a config file plus CLI overrides."""

    config_path: Path
    config_sha256: str
    curve_csv: Path | None
    vols_csv: Path | None
    spot_index_rate: float | None
    tax_rate: float
    cap_spec_path: Path | None
    portfolio_paths: tuple[Path, ...]
    weights_path: Path | None
    replay_pvfp_path: Path | None
    spread_points: tuple[tuple[float, float], ...] | None
    scenarios: int
    seed: int
    horizon: int
    workers: int
    output_dir: Path

    def __post_init__(self) -> None:
        if self.scenarios < 2:
            raise ConfigError(f"scenarios must be >= 2, got {self.scenarios}")
        if self.horizon < 1:
            raise ConfigError(f"horizon must be >= 1, got {self.horizon}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def _require(data: dict[str, Any], key: str, path: Path) -> Any:
    if key not in data:
        raise ConfigError(f"{path}: missing required field {key!r}")
    return data[key]


def _load_json(path: Path, top: type = dict) -> Any:
    """Parse a JSON file whose top level is an object (or, with ``top=list``, an array).

    NaN, Infinity and literals that overflow a float (1e999) are rejected.
    """
    if not path.is_file():
        raise ConfigError(f"{path}: file not found")

    def reject(literal: str) -> NoReturn:
        raise ConfigError(f"{path}: non-finite number {literal} is not allowed")

    def finite_float(literal: str) -> float:
        value = float(literal)
        if not math.isfinite(value):
            reject(literal)
        return value

    try:
        data = json.loads(
            path.read_text(encoding="utf-8"), parse_constant=reject, parse_float=finite_float
        )
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(data, top):
        raise ConfigError(f"{path}: expected a JSON {'object' if top is dict else 'array'} at the top level")
    return data


def _read_csv_pairs(path: Path, col_a: str, col_b: str) -> list[tuple[float, float]]:
    if not path.is_file():
        raise ConfigError(f"{path}: file not found")
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or col_a not in reader.fieldnames or col_b not in reader.fieldnames:
            raise ConfigError(f"{path}: expected CSV header with columns {col_a!r},{col_b!r}")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            try:
                pair = (float(row[col_a]), float(row[col_b]))
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{path}: line {lineno}: non-numeric {col_a}/{col_b}") from exc
            if not all(map(math.isfinite, pair)):
                raise ConfigError(f"{path}: line {lineno}: non-finite {col_a}/{col_b}")
            rows.append(pair)
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    return rows


def _resolve(base: Path, value: str) -> Path:
    p = Path(value)
    return p if p.is_absolute() else (base / p).resolve()


def load_run_config(
    config_path: str | Path,
    seed: int | None = None,
    scenarios: int | None = None,
    workers: int | None = None,
    out: str | None = None,
) -> RunConfig:
    """Load a run config, applying CLI overrides.

    A flag may fill a setting the file omits; a flag that contradicts the
    file is rejected rather than silently resolved.
    """
    path = Path(config_path).resolve()
    if not path.is_file():
        raise ConfigError(f"{path}: config file not found")
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    data = _load_json(path)
    base = path.parent

    def merged(name: str, flag: Any, display: Any = None) -> Any:
        file_value = data.get(name)
        if flag is None:
            return file_value
        if file_value is not None and file_value != flag:
            raise ConfigError(
                f"{path}: {name}={file_value} conflicts with the command-line value "
                f"{display if display is not None else flag}; remove one"
            )
        return flag

    market = data.get("market", {})
    if not isinstance(market, dict):
        raise ConfigError(f"{path}: field 'market' must be an object")

    out_dir = merged("output_dir", out)
    if out_dir is None:
        raise ConfigError(f"{path}: missing required field 'output_dir' (or pass --out)")

    spread_points = data.get("spread_points")
    if spread_points is not None:
        try:
            spread_points = tuple((float(v), float(s)) for v, s in spread_points)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: spread_points must be [[rel_vol, spread], ...]") from exc

    merged_scenarios = merged("scenarios", scenarios)
    merged_seed = merged("seed", seed)
    merged_workers = merged("workers", workers)

    config = RunConfig(
        config_path=path,
        config_sha256=digest,
        curve_csv=_resolve(base, market["curve_csv"]) if "curve_csv" in market else None,
        vols_csv=_resolve(base, market["vols_csv"]) if "vols_csv" in market else None,
        spot_index_rate=market.get("spot_index_rate"),
        tax_rate=float(market.get("tax_rate", 0.0)),
        cap_spec_path=_resolve(base, data["cap_spec"]) if "cap_spec" in data else None,
        portfolio_paths=tuple(_resolve(base, p) for p in data.get("portfolios", ())),
        weights_path=_resolve(base, data["weights"]) if "weights" in data else None,
        replay_pvfp_path=_resolve(base, data["replay_pvfp"]) if "replay_pvfp" in data else None,
        spread_points=spread_points,
        scenarios=int(merged_scenarios) if merged_scenarios is not None else DEFAULT_SCENARIOS,
        seed=int(merged_seed) if merged_seed is not None else 0,
        horizon=int(data.get("horizon", DEFAULT_HORIZON)),
        workers=int(merged_workers) if merged_workers is not None else 1,
        output_dir=_resolve(base, str(out_dir)),
    )

    referenced = [config.curve_csv, config.vols_csv, config.cap_spec_path,
                  config.weights_path, config.replay_pvfp_path, *config.portfolio_paths]
    for ref in referenced:
        if ref is not None and not ref.is_file():
            raise ConfigError(f"{path}: referenced file not found: {ref}")
    return config


def load_market(config: RunConfig) -> MarketData:
    if config.curve_csv is None or config.vols_csv is None:
        raise ConfigError(
            f"{config.config_path}: market.curve_csv and market.vols_csv are required for this command"
        )
    curve = load_zero_curve(_read_csv_pairs(config.curve_csv, "tenor_years", "zero_rate"))
    vols = load_vol_structure(_read_csv_pairs(config.vols_csv, "fixing_years", "black_vol"))
    return MarketData(
        curve=curve,
        vols=vols,
        spot_index_rate=float(config.spot_index_rate or 0.0),
        tax_rate=config.tax_rate,
    )


def load_zero_curve_only(config: RunConfig):
    if config.curve_csv is None:
        raise ConfigError(f"{config.config_path}: market.curve_csv is required for this command")
    return load_zero_curve(_read_csv_pairs(config.curve_csv, "tenor_years", "zero_rate"))


def load_cap_inputs(path: Path, spot_index_rate: float | None) -> CapInputs:
    data = _load_json(path)
    try:
        spec = CapSpec(
            strike=float(_require(data, "strike", path)),
            notionals=tuple(float(n) for n in _require(data, "notionals", path)),
            index_tenor=float(_require(data, "index_tenor_years", path)),
            accrual=float(data.get("accrual_years", 1.0)),
            strikes=tuple(float(s) for s in data["strikes"]) if "strikes" in data else None,
            use_spot_for_first_period=bool(data.get("use_spot_for_first_period", False)),
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if spec.use_spot_for_first_period and spot_index_rate is None:
        raise ConfigError(
            f"{path}: use_spot_for_first_period needs market.spot_index_rate in the run config"
        )

    replay = data.get("replay")
    costs = None
    deterministic = None
    if replay is not None:
        if not isinstance(replay, dict):
            raise ConfigError(f"{path}: field 'replay' must be an object")
        costs = tuple(float(v) for v in _require(replay, "caplet_costs", path))
        deterministic = float(_require(replay, "deterministic_cost", path))
        if len(costs) != len(spec.notionals):
            raise ConfigError(f"{path}: replay.caplet_costs must cover period indices 0..n")
    return CapInputs(
        spec=spec,
        booked_flows_pv=float(data.get("booked_flows_pv", 0.0)),
        replay_caplet_costs=costs,
        replay_deterministic_cost=deterministic,
    )


def load_weight_matrix(path: Path) -> WeightMatrix:
    data = _load_json(path)
    cells = {
        criterion: {bucket: float(w) for bucket, w in row.items()}
        for criterion, row in data.items()
        if isinstance(row, dict)
    }
    try:
        return WeightMatrix(cells=cells)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def default_weight_matrix() -> WeightMatrix:
    """The illustrative weight matrix shipped with the package.

    Placeholder values for demos and tests; production runs should supply a
    matrix regressed on comparable individual-data portfolios.
    """
    with resources.as_file(resources.files("protval") / "data/illustrative_weights.json") as path:
        return load_weight_matrix(path)


def load_chronicle(path: Path) -> np.ndarray:
    rows = _read_csv_pairs(path, "year", "expected_sp")
    years = [int(y) for y, _ in rows]
    if years != list(range(1, len(rows) + 1)):
        raise ConfigError(f"{path}: 'year' column must run 1..H without gaps")
    return np.array([v for _, v in rows], dtype=float)


def _parse_renewal(data: dict[str, Any], path: Path) -> TacitRenewal | FixedTerm:
    renewal = _require(data, "renewal", path)
    mode = _require(renewal, "mode", path)
    if mode == "tacit_renewal":
        return TacitRenewal(lapse_rate=float(_require(renewal, "lapse_rate", path)))
    if mode == "fixed_term":
        return FixedTerm(
            mean_remaining_term_months=float(_require(renewal, "mean_remaining_term_months", path))
        )
    raise ConfigError(f"{path}: renewal.mode must be 'tacit_renewal' or 'fixed_term', got {mode!r}")


def _parse_criteria(data: dict[str, Any], path: Path) -> RiskCriteria | None:
    raw = data.get("criteria")
    if raw is None:
        return None
    try:
        return RiskCriteria(
            portfolio_age=float(_require(raw, "portfolio_age_years", path)),
            homogeneity=str(_require(raw, "homogeneity", path)),
            technical_bases_quality=str(_require(raw, "technical_bases_quality", path)),
            concentration=str(_require(raw, "concentration", path)),
            moral_hazard=str(_require(raw, "moral_hazard", path)),
            litigation=str(_require(raw, "litigation", path)),
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: criteria: {exc}") from exc


def load_portfolio(path: Path, default_horizon: int = DEFAULT_HORIZON) -> PortfolioSpec:
    data = _load_json(path)
    mean_sp = float(_require(data, "retained_loss_ratio", path))

    if "chronicle_csv" in data:
        chronicle = tuple(load_chronicle(_resolve(path.parent, data["chronicle_csv"])))
    elif "chronicle" in data:
        chronicle = tuple(float(v) for v in data["chronicle"])
    else:
        horizon = int(data.get("horizon_years", default_horizon))
        chronicle = (mean_sp,) * horizon

    try:
        return PortfolioSpec(
            id=str(_require(data, "id", path)),
            initial_premium=float(_require(data, "initial_premium", path)),
            chronicle=chronicle,
            renewal=_parse_renewal(data, path),
            profit_share_rate=float(_require(data, "profit_share_rate", path)),
            tax_rate=float(_require(data, "tax_rate", path)),
            mean_sp=mean_sp,
            sigma=float(data["sigma"]) if data.get("sigma") is not None else None,
            criteria=_parse_criteria(data, path),
            reversion_speed=float(data.get("reversion_speed", DEFAULT_REVERSION_SPEED)),
            actuarial_age=(
                float(data["actuarial_age_years"])
                if data.get("actuarial_age_years") is not None
                else None
            ),
            accounting_loss_ratio=(
                float(data["accounting_loss_ratio"])
                if data.get("accounting_loss_ratio") is not None
                else None
            ),
            risk_anticipation=(
                bool(data["risk_anticipation"]) if data.get("risk_anticipation") is not None else None
            ),
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def load_replay_pvfp(path: Path) -> list[ReplayPvfpRow]:
    data = _load_json(path, top=list)
    if not data:
        raise ConfigError(f"{path}: expected a non-empty JSON array of portfolio rows")
    rows = []
    for entry in data:
        if not isinstance(entry, dict):
            raise ConfigError(f"{path}: replay rows must be JSON objects")
        rows.append(
            ReplayPvfpRow(
                id=str(_require(entry, "id", path)),
                mean_pvfp=float(_require(entry, "mean_pvfp", path)),
                vol_pvfp=float(_require(entry, "vol_pvfp", path)),
                pvfp_tsr=float(_require(entry, "pvfp_tsr", path)),
                pvfp_tsr_spread=float(_require(entry, "pvfp_tsr_spread", path)),
            )
        )
    return rows
