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
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, NoReturn

import numpy as np

from .cap import CapSpec
from .curves import VolTermStructure, ZeroCurve
from .errors import ConfigError
from .loss import (
    DEFAULT_HORIZON,
    DEFAULT_REVERSION_SPEED,
    DEFAULT_SCENARIOS,
    RiskCriteria,
    WeightMatrix,
)
from .projection import FixedTerm, PortfolioSpec, TacitRenewal
from .risk import _check_calibration_points


@dataclass(frozen=True)
class ReplayPvfpRow:
    """Pre-computed PVFP figures for one portfolio (replay mode)."""

    id: str
    mean_pvfp: float
    vol_pvfp: float
    pvfp_tsr: float
    pvfp_tsr_spread: float

    def __post_init__(self) -> None:
        if not self.mean_pvfp > 0.0:
            raise ValueError(f"field 'mean_pvfp' must be > 0, got {self.mean_pvfp!r}")
        if not self.vol_pvfp >= 0.0:
            raise ValueError(f"field 'vol_pvfp' must be >= 0, got {self.vol_pvfp!r}")
        if self.pvfp_tsr == 0.0:
            raise ValueError("field 'pvfp_tsr' must not be 0")


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
    output_dir: Path

    def __post_init__(self) -> None:
        if self.scenarios < 2:
            raise ConfigError(f"{self.config_path}: scenarios must be >= 2, got {self.scenarios}")
        if self.horizon < 1:
            raise ConfigError(f"{self.config_path}: horizon must be >= 1, got {self.horizon}")
        if self.seed < 0:
            raise ConfigError(f"{self.config_path}: seed must be >= 0, got {self.seed}")
        if not 0.0 <= self.tax_rate < 1.0:
            raise ConfigError(f"{self.config_path}: market.tax_rate must be in [0, 1), got {self.tax_rate}")


_REQUIRED = object()


def _require(data: dict[str, Any], key: str, path: Path) -> Any:
    if key not in data:
        raise ConfigError(f"{path}: missing required field {key!r}")
    return data[key]


@contextmanager
def _naming(path: Path, context: str = "") -> Iterator[None]:
    """Turn a ValueError raised in the block into a ConfigError naming ``path``; a ConfigError passes."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{path}: {context}{exc}") from exc


_KINDS = {dict: "an object", list: "an array", str: "a string", bool: "true or false"}


def _expect(value: Any, kind: type, path: Path, field: str) -> Any:
    """``value`` unchanged if it is of the JSON ``kind`` (object, array, string or boolean)."""
    if not isinstance(value, kind):
        raise ConfigError(f"{path}: field {field!r} must be {_KINDS[kind]}, got {value!r}")
    return value


def _as_float(value: Any, path: Path, field: str) -> float:
    """A JSON number as a float.

    ``float()`` alone would also take the string "nan" and the boolean true,
    and raises ``OverflowError`` on an integer beyond the float range.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: field {field!r} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{path}: field {field!r} is too large for a float") from None


def _as_int(value: Any, path: Path, field: str) -> int:
    """A JSON integer (or integral float) as an int; strings and booleans are rejected."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: field {field!r} must be an integer, got {value!r}")
    return value


def _floats(value: Any, path: Path, field: str) -> tuple[float, ...]:
    """A JSON array of numbers as a tuple of floats."""
    return tuple(_as_float(v, path, field) for v in _expect(value, list, path, field))


def _float(data: dict[str, Any], key: str, path: Path, default: Any = _REQUIRED) -> float | None:
    """Field ``key`` as a float; required unless a default is given. Null is allowed only where the default is None."""
    value = _require(data, key, path) if default is _REQUIRED else data.get(key, default)
    return None if value is None and default is None else _as_float(value, path, key)


def _file_name(value: Any, path: Path, field: str) -> str:
    """A JSON string usable as one file-name component: non-empty, no path separator, not '.' or '..'."""
    if not isinstance(value, str) or value in ("", ".", "..") or any(c in value for c in "/\\\0"):
        raise ConfigError(
            f"{path}: field {field!r} must be a file name (a non-empty string, not '.' or '..', "
            f"with no '/' or '\\'), got {value!r}"
        )
    return value


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


def _resolve(path: Path, field: str, value: Any) -> Path:
    """A path given in file ``path``, relative to that file's directory unless absolute."""
    p = Path(_expect(value, str, path, field))
    return p if p.is_absolute() else (path.parent / p).resolve()


def load_run_config(
    config_path: str | Path,
    seed: int | None = None,
    scenarios: int | None = None,
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

    def merged(name: str, flag: Any) -> Any:
        file_value = data.get(name)
        if flag is None:
            return file_value
        if file_value is not None and file_value != flag:
            raise ConfigError(
                f"{path}: {name}={file_value} conflicts with the command-line value {flag}; remove one"
            )
        return flag

    market = _expect(data.get("market", {}), dict, path, "market")

    out_dir = merged("output_dir", out)
    if out_dir is None:
        raise ConfigError(f"{path}: missing required field 'output_dir' (or pass --out)")

    spread_points = data.get("spread_points")
    if spread_points is not None:
        try:
            spread_points = tuple(
                (_as_float(v, path, "spread_points"), _as_float(s, path, "spread_points"))
                for v, s in spread_points
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: spread_points must be [[rel_vol, spread], ...] of numbers") from exc
        with _naming(path, "spread_points: "):
            _check_calibration_points(spread_points)

    def merged_int(name: str, flag: int | None, default: int) -> int:
        if name in data:  # a null here is an error, not the default
            data[name] = _as_int(data[name], path, name)
        value = merged(name, flag)
        return default if value is None else value

    def ref(holder: dict[str, Any], name: str) -> Path | None:
        return _resolve(path, name, holder[name]) if name in holder else None

    config = RunConfig(
        config_path=path,
        config_sha256=digest,
        curve_csv=ref(market, "curve_csv"),
        vols_csv=ref(market, "vols_csv"),
        spot_index_rate=_float(market, "spot_index_rate", path, default=None),
        tax_rate=_float(market, "tax_rate", path, default=0.0),
        cap_spec_path=ref(data, "cap_spec"),
        portfolio_paths=tuple(
            _resolve(path, "portfolios", p) for p in _expect(data.get("portfolios", []), list, path, "portfolios")
        ),
        weights_path=ref(data, "weights"),
        replay_pvfp_path=ref(data, "replay_pvfp"),
        spread_points=spread_points,
        scenarios=merged_int("scenarios", scenarios, DEFAULT_SCENARIOS),
        seed=merged_int("seed", seed, 0),
        horizon=merged_int("horizon", None, DEFAULT_HORIZON),
        output_dir=_resolve(path, "output_dir", str(out_dir)),
    )

    referenced = [config.curve_csv, config.vols_csv, config.cap_spec_path,
                  config.weights_path, config.replay_pvfp_path, *config.portfolio_paths]
    for ref in referenced:
        if ref is not None and not ref.is_file():
            raise ConfigError(f"{path}: referenced file not found: {ref}")
    return config


def load_curve(config: RunConfig) -> ZeroCurve:
    if config.curve_csv is None:
        raise ConfigError(f"{config.config_path}: market.curve_csv is required for this command")
    tenors, rates = zip(*_read_csv_pairs(config.curve_csv, "tenor_years", "zero_rate"))
    with _naming(config.curve_csv, "tenor_years/zero_rate: "):
        return ZeroCurve(tenors=tenors, zero_rates=rates)


def load_vols(config: RunConfig) -> VolTermStructure:
    if config.vols_csv is None:
        raise ConfigError(f"{config.config_path}: market.vols_csv is required for this command")
    times, vols = zip(*_read_csv_pairs(config.vols_csv, "fixing_years", "black_vol"))
    with _naming(config.vols_csv, "fixing_years/black_vol: "):
        return VolTermStructure(fixing_times=times, black_vols=vols)


def load_cap_inputs(
    path: Path, spot_index_rate: float | None
) -> tuple[CapSpec, float, tuple[tuple[float, ...], float] | None]:
    """The cap spec, the discounted booked flows and the replay figures of a cap-spec file.

    The replay figures are None, or ``(caplet_costs, deterministic_cost)``:
    externally booked per-period figures (insurer costs, negative). When
    they are present the report recomputes only the aggregate identities
    instead of pricing.
    """
    data = _load_json(path)
    with _naming(path):
        spec = CapSpec(
            strike=_float(data, "strike", path),
            notionals=_floats(_require(data, "notionals", path), path, "notionals"),
            index_tenor=_float(data, "index_tenor_years", path),
            accrual=_float(data, "accrual_years", path, default=1.0),
            strikes=_floats(data["strikes"], path, "strikes") if "strikes" in data else None,
            use_spot_for_first_period=_expect(
                data.get("use_spot_for_first_period", False), bool, path, "use_spot_for_first_period"
            ),
        )
    if spec.use_spot_for_first_period and spot_index_rate is None:
        raise ConfigError(
            f"{path}: use_spot_for_first_period needs market.spot_index_rate in the run config"
        )

    raw_replay = data.get("replay")
    replay = None
    if raw_replay is not None:
        _expect(raw_replay, dict, path, "replay")
        replay = (
            _floats(_require(raw_replay, "caplet_costs", path), path, "caplet_costs"),
            _float(raw_replay, "deterministic_cost", path),
        )
        if len(replay[0]) != len(spec.notionals):
            raise ConfigError(f"{path}: replay.caplet_costs must cover period indices 0..n")
    return spec, _float(data, "booked_flows_pv", path, default=0.0), replay


def load_weight_matrix(path: Path) -> WeightMatrix:
    """Criterion -> {bucket: weight} cells of a JSON file; keys that start with '_' are comments."""
    data = _load_json(path)
    cells = {
        criterion: {
            bucket: _as_float(w, path, f"{criterion}.{bucket}")
            for bucket, w in _expect(row, dict, path, criterion).items()
        }
        for criterion, row in data.items()
        if not criterion.startswith("_")
    }
    try:
        return WeightMatrix(cells=cells)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def load_chronicle(path: Path) -> np.ndarray:
    rows = _read_csv_pairs(path, "year", "expected_sp")
    if [y for y, _ in rows] != list(range(1, len(rows) + 1)):
        raise ConfigError(f"{path}: 'year' column must run 1..H in whole years without gaps")
    if any(v <= 0.0 for _, v in rows):
        raise ConfigError(f"{path}: 'expected_sp' values must be > 0")
    return np.array([v for _, v in rows], dtype=float)


def _parse_renewal(data: dict[str, Any], path: Path) -> TacitRenewal | FixedTerm:
    renewal = _expect(_require(data, "renewal", path), dict, path, "renewal")
    mode = _require(renewal, "mode", path)
    if mode == "tacit_renewal":
        return TacitRenewal(lapse_rate=_float(renewal, "lapse_rate", path))
    if mode == "fixed_term":
        return FixedTerm(mean_remaining_term_months=_float(renewal, "mean_remaining_term_months", path))
    raise ConfigError(f"{path}: renewal.mode must be 'tacit_renewal' or 'fixed_term', got {mode!r}")


def _parse_criteria(data: dict[str, Any], path: Path) -> RiskCriteria | None:
    raw = data.get("criteria")
    if raw is None:
        return None
    _expect(raw, dict, path, "criteria")
    with _naming(path, "criteria: "):
        return RiskCriteria(
            portfolio_age=_float(raw, "portfolio_age_years", path),
            homogeneity=str(_require(raw, "homogeneity", path)),
            technical_bases_quality=str(_require(raw, "technical_bases_quality", path)),
            concentration=str(_require(raw, "concentration", path)),
            moral_hazard=str(_require(raw, "moral_hazard", path)),
            litigation=str(_require(raw, "litigation", path)),
        )


def load_portfolio(path: Path, default_horizon: int = DEFAULT_HORIZON) -> PortfolioSpec:
    data = _load_json(path)
    mean_sp = _float(data, "retained_loss_ratio", path)

    if "chronicle_csv" in data:
        chronicle = tuple(load_chronicle(_resolve(path, "chronicle_csv", data["chronicle_csv"])))
    elif "chronicle" in data:
        chronicle = _floats(data["chronicle"], path, "chronicle")
    else:
        horizon = _as_int(data.get("horizon_years", default_horizon), path, "horizon_years")
        if horizon < 1:
            raise ConfigError(f"{path}: field 'horizon_years' must be >= 1, got {horizon}")
        chronicle = (mean_sp,) * horizon

    with _naming(path):
        return PortfolioSpec(
            id=_file_name(_require(data, "id", path), path, "id"),
            initial_premium=_float(data, "initial_premium", path),
            chronicle=chronicle,
            renewal=_parse_renewal(data, path),
            profit_share_rate=_float(data, "profit_share_rate", path),
            tax_rate=_float(data, "tax_rate", path),
            mean_sp=mean_sp,
            sigma=_float(data, "sigma", path, default=None),
            criteria=_parse_criteria(data, path),
            reversion_speed=_float(data, "reversion_speed", path, default=DEFAULT_REVERSION_SPEED),
        )


def load_replay_pvfp(path: Path) -> list[ReplayPvfpRow]:
    data = _load_json(path, top=list)
    if not data:
        raise ConfigError(f"{path}: expected a non-empty JSON array of portfolio rows")
    rows = []
    for entry in data:
        if not isinstance(entry, dict):
            raise ConfigError(f"{path}: replay rows must be JSON objects")
        row_id = _expect(_require(entry, "id", path), str, path, "id")
        with _naming(path, f"row {row_id!r}: "):
            rows.append(
                ReplayPvfpRow(
                    id=row_id,
                    mean_pvfp=_float(entry, "mean_pvfp", path),
                    vol_pvfp=_float(entry, "vol_pvfp", path),
                    pvfp_tsr=_float(entry, "pvfp_tsr", path),
                    pvfp_tsr_spread=_float(entry, "pvfp_tsr_spread", path),
                )
            )
    return rows
