"""Run configuration and input-file ingestion.

Files are JSON for specs and weights, CSV for curves and chronicles, UTF-8
with decimal points. Relative paths inside a config or portfolio file
resolve against that file's directory. Parse and validation problems raise
``ConfigError`` with the offending file and field.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, NoReturn

from .cap import CapSpec
from .curves import VolTermStructure, ZeroCurve
from .loss import (
    AGE_CRITERION,
    BUCKETS,
    DEFAULT_HORIZON,
    DEFAULT_REVERSION_SPEED,
    DEFAULT_SCENARIOS,
    RATING_CRITERIA,
    RATING_LEVELS,
    age_bucket,
    lognormal_sigma,
    volatility_score,
)
from .projection import FixedTerm, PortfolioSpec, TacitRenewal
from .risk import PvfpStatistics, SpreadFunction, calibrate_spread


class ConfigError(ValueError):
    """Raised when configuration inputs are missing, malformed or inconsistent."""


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
    spread_fn: SpreadFunction | None
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
def naming(path: str | Path, context: str = "") -> Iterator[None]:
    """Re-raise a ValueError, MemoryError or float error as a ConfigError naming ``path``; a ConfigError passes."""
    try:
        yield
    except ConfigError:
        raise
    except FloatingPointError as exc:
        raise ConfigError(f"{path}: {context}outside the float range: {exc}") from exc
    except (ValueError, MemoryError) as exc:
        raise ConfigError(f"{path}: {context}{exc}") from exc


_KINDS = {dict: "an object", list: "an array", str: "a string", bool: "true or false"}


def _known(data: dict[str, Any], keys: tuple[str, ...], path: Path, prefix: str = "") -> dict[str, Any]:
    """``data`` unchanged if each of its keys is one of ``keys`` or starts with '_' (a comment)."""
    for key in data:
        if key not in keys and not key.startswith("_"):
            raise ConfigError(f"{path}: unknown field '{prefix}{key}'")
    return data


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
    """A JSON integer, or an integral float of magnitude <= 2**53 (so read exactly), as an int."""
    if isinstance(value, float) and value.is_integer() and abs(value) <= 2.0**53:
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


def _read(path: Path) -> bytes:
    """The bytes of file ``path``; a path that names no file raises a ConfigError."""
    try:
        return path.read_bytes()
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError):
        raise ConfigError(f"{path}: file not found") from None


def _load_json(path: Path, top: type = dict) -> Any:
    """Parse a JSON file whose top level is an object (or, with ``top=list``, an array)."""
    return _parse_json(_read(path), path, top)


def _decode(raw: bytes, path: Path) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 ({exc})") from exc


def _parse_json(raw: bytes, path: Path, top: type = dict) -> Any:
    """Parse ``raw``, the UTF-8 bytes of JSON file ``path``.

    NaN, Infinity, literals that overflow a float (1e999) and a key given
    twice in one object are rejected.
    """

    def reject(literal: str) -> NoReturn:
        raise ConfigError(f"{path}: non-finite number {literal} is not allowed")

    def unique(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
        data = dict(pairs)
        if len(data) < len(pairs):
            keys = [k for k, _ in pairs]
            key = next(k for i, k in enumerate(keys) if k in keys[:i])
            raise ConfigError(f"{path}: field {key!r} is given more than once")
        return data

    def finite_float(literal: str) -> float:
        value = float(literal)
        if not math.isfinite(value):
            reject(literal)
        return value

    try:
        data = json.loads(_decode(raw, path), object_pairs_hook=unique, parse_constant=reject, parse_float=finite_float)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(data, top):
        raise ConfigError(f"{path}: expected a JSON {'object' if top is dict else 'array'} at the top level")
    return data


def _read_csv_pairs(path: Path, col_a: str, col_b: str) -> list[tuple[float, float]]:
    """The (col_a, col_b) number pairs of CSV file ``path``, one per data row.

    Rows and line numbers are those of ``csv.DictReader``: blank lines are
    skipped and not counted, and a column named twice is read from its last
    place.
    """
    with io.StringIO(_decode(_read(path), path), newline="") as handle:
        reader = csv.reader(handle)
        columns = {name: i for i, name in enumerate(next(reader, ()))}
        if col_a not in columns or col_b not in columns:
            raise ConfigError(f"{path}: expected CSV header with columns {col_a!r},{col_b!r}")
        a, b = columns[col_a], columns[col_b]
        rows = []
        for lineno, row in enumerate(filter(None, reader), start=2):
            try:
                pair = (float(row[a]), float(row[b]))
            except (IndexError, ValueError) as exc:
                raise ConfigError(f"{path}: line {lineno}: non-numeric {col_a}/{col_b}") from exc
            if not all(map(math.isfinite, pair)):
                raise ConfigError(f"{path}: line {lineno}: non-finite {col_a}/{col_b}")
            rows.append(pair)
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    return rows


@functools.lru_cache(maxsize=256)
def _resolved_dir(directory: Path) -> Path:
    """``directory.resolve()``, computed once per absolute directory in a process.

    A symlink on ``directory``'s path that changes while the process runs is not followed anew.
    """
    return directory.resolve()


def _resolve(path: Path, field: str, value: Any) -> Path:
    """A path given in file ``path``, relative to that file's directory unless absolute.

    A relative path comes back as ``Path.resolve()`` returns it. For a bare
    file name that is not a symlink, given in a file named by an absolute
    path, that is the directory's resolved form (cached) joined with the
    name, so it costs one ``lstat`` instead of one per path component.
    """
    p = Path(_expect(value, str, path, field))
    if p.is_absolute():
        return p
    joined = path.parent / p
    if path.is_absolute() and len(p.parts) == 1 and p.name != ".." and not os.path.islink(joined):
        return _resolved_dir(path.parent) / p
    return joined.resolve()


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
    raw = _read(path)  # read once, so the manifest's hash is of the bytes that were parsed
    data = _known(_parse_json(raw, path), (
        "market", "portfolios", "weights", "cap_spec", "replay_pvfp", "spread_points",
        "scenarios", "seed", "horizon", "output_dir",
    ), path)

    def merged(name: str, flag: Any) -> Any:
        file_value = data.get(name)
        if flag is None:
            return file_value
        if file_value is not None and file_value != flag:
            raise ConfigError(
                f"{path}: {name}={file_value} conflicts with the command-line value {flag}; remove one"
            )
        return flag

    market = _known(
        _expect(data.get("market", {}), dict, path, "market"),
        ("curve_csv", "vols_csv", "spot_index_rate", "tax_rate"), path, "market.",
    )

    # The file's output_dir is relative to the file, the --out flag to the working directory.
    if "output_dir" in data:
        data["output_dir"] = _resolve(path, "output_dir", data["output_dir"])
    output_dir = merged("output_dir", None if out is None else Path(out).resolve())
    if output_dir is None:
        raise ConfigError(f"{path}: missing required field 'output_dir' (or pass --out)")

    spread_fn = None
    if data.get("spread_points") is not None:
        try:
            spread_points = tuple(
                (_as_float(v, path, "spread_points"), _as_float(s, path, "spread_points"))
                for v, s in data["spread_points"]
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: spread_points must be [[rel_vol, spread], ...] of numbers") from exc
        with naming(path, "spread_points: "):
            spread_fn = calibrate_spread(spread_points)

    def merged_int(name: str, flag: int | None, default: int) -> int:
        if name in data:  # a null here is an error, not the default
            data[name] = _as_int(data[name], path, name)
        value = merged(name, flag)
        return default if value is None else value

    def ref(holder: dict[str, Any], name: str) -> Path | None:
        return _resolve(path, name, holder[name]) if name in holder else None

    config = RunConfig(
        config_path=path,
        config_sha256=hashlib.sha256(raw).hexdigest(),
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
        spread_fn=spread_fn,
        scenarios=merged_int("scenarios", scenarios, DEFAULT_SCENARIOS),
        seed=merged_int("seed", seed, 0),
        horizon=merged_int("horizon", None, DEFAULT_HORIZON),
        output_dir=output_dir,
    )

    referenced = [config.curve_csv, config.vols_csv, config.cap_spec_path,
                  config.weights_path, config.replay_pvfp_path, *config.portfolio_paths]
    for file in referenced:
        if file is not None and not file.is_file():
            raise ConfigError(f"{path}: referenced file not found: {file}")
    return config


def load_curve(config: RunConfig) -> ZeroCurve:
    if config.curve_csv is None:
        raise ConfigError(f"{config.config_path}: market.curve_csv is required for this command")
    tenors, rates = zip(*_read_csv_pairs(config.curve_csv, "tenor_years", "zero_rate"))
    with naming(config.curve_csv, "tenor_years/zero_rate: "):
        return ZeroCurve(tenors=tenors, zero_rates=rates)


def load_vols(config: RunConfig) -> VolTermStructure:
    if config.vols_csv is None:
        raise ConfigError(f"{config.config_path}: market.vols_csv is required for this command")
    times, vols = zip(*_read_csv_pairs(config.vols_csv, "fixing_years", "black_vol"))
    with naming(config.vols_csv, "fixing_years/black_vol: "):
        return VolTermStructure(fixing_times=times, black_vols=vols)


def load_cap_inputs(
    path: Path, spot_index_rate: float | None
) -> tuple[CapSpec, float, tuple[tuple[float, ...], float] | None]:
    """The cap spec, the discounted booked flows and the replay figures of a cap-spec file.

    The spec's strikes are the file's ``strikes``, or its ``strike`` for
    every period (one of the two, not both); its period-0 forward is ``spot_index_rate`` when the file
    sets ``use_spot_for_first_period``. The replay figures are None, or
    ``(caplet_costs, deterministic_cost)``: externally booked per-period
    figures (insurer costs, negative). When they are present the report
    recomputes only the aggregate identities instead of pricing.
    """
    data = _known(_load_json(path), (
        "strike", "notionals", "index_tenor_years", "accrual_years", "strikes",
        "use_spot_for_first_period", "booked_flows_pv", "replay",
    ), path)
    if "strike" in data and "strikes" in data:
        raise ConfigError(f"{path}: fields 'strike' and 'strikes' conflict; give one")
    notionals = _floats(_require(data, "notionals", path), path, "notionals")
    index_tenor = _float(data, "index_tenor_years", path)
    accrual = _float(data, "accrual_years", path, default=1.0)
    if "strikes" in data:
        strikes = _floats(data["strikes"], path, "strikes")
    else:
        strikes = (_float(data, "strike", path),) * len(notionals)
    use_spot = _expect(data.get("use_spot_for_first_period", False), bool, path, "use_spot_for_first_period")
    with naming(path):
        spec = CapSpec(notionals, strikes, index_tenor, accrual, first_forward=spot_index_rate if use_spot else None)
    if use_spot and spot_index_rate is None:
        raise ConfigError(
            f"{path}: use_spot_for_first_period needs market.spot_index_rate in the run config"
        )

    raw_replay = data.get("replay")
    replay = None
    if raw_replay is not None:
        _known(_expect(raw_replay, dict, path, "replay"), ("caplet_costs", "deterministic_cost"), path, "replay.")
        replay = (
            _floats(_require(raw_replay, "caplet_costs", path), path, "caplet_costs"),
            _float(raw_replay, "deterministic_cost", path),
        )
        if len(replay[0]) != len(spec.notionals):
            raise ConfigError(f"{path}: replay.caplet_costs must cover period indices 0..n")
    return spec, _float(data, "booked_flows_pv", path, default=0.0), replay


def load_weight_matrix(path: Path) -> dict[str, dict[str, float]]:
    """Criterion -> {bucket: weight} of a JSON file, every cell of ``BUCKETS`` given and > 0.

    Keys that start with '_' are comments.
    """
    data = _known(_load_json(path), tuple(BUCKETS), path)
    weights = {}
    for criterion, buckets in BUCKETS.items():
        if criterion not in data:
            raise ConfigError(f"{path}: weight matrix is missing criterion {criterion!r}")
        row = _known(_expect(data[criterion], dict, path, criterion), buckets, path, f"{criterion}.")
        weights[criterion] = {}
        for bucket in buckets:
            if bucket not in row:
                raise ConfigError(f"{path}: weight matrix is missing cell ({criterion!r}, {bucket!r})")
            weight = _as_float(row[bucket], path, f"{criterion}.{bucket}")
            if weight <= 0.0:
                raise ConfigError(f"{path}: weight for ({criterion!r}, {bucket!r}) must be > 0, got {weight}")
            weights[criterion][bucket] = weight
    return weights


def load_chronicle(path: Path) -> tuple[float, ...]:
    rows = _read_csv_pairs(path, "year", "expected_sp")
    if [y for y, _ in rows] != list(range(1, len(rows) + 1)):
        raise ConfigError(f"{path}: 'year' column must run 1..H in whole years without gaps")
    if any(v <= 0.0 for _, v in rows):
        raise ConfigError(f"{path}: 'expected_sp' values must be > 0")
    return tuple(v for _, v in rows)


def _parse_renewal(data: dict[str, Any], path: Path) -> TacitRenewal | FixedTerm:
    renewal = _expect(_require(data, "renewal", path), dict, path, "renewal")
    mode = _require(renewal, "mode", path)
    if mode == "tacit_renewal":
        _known(renewal, ("mode", "lapse_rate"), path, "renewal.")
        return TacitRenewal(lapse_rate=_float(renewal, "lapse_rate", path))
    if mode == "fixed_term":
        _known(renewal, ("mode", "mean_remaining_term_months"), path, "renewal.")
        return FixedTerm(mean_remaining_term_months=_float(renewal, "mean_remaining_term_months", path))
    raise ConfigError(f"{path}: renewal.mode must be 'tacit_renewal' or 'fixed_term', got {mode!r}")


def _parse_criteria(raw: Any, path: Path) -> dict[str, str]:
    """The criterion -> bucket choices of a portfolio's ``criteria`` object."""
    _known(_expect(raw, dict, path, "criteria"), ("portfolio_age_years",) + RATING_CRITERIA, path, "criteria.")
    age = _float(raw, "portfolio_age_years", path)
    if age < 0.0:
        raise ConfigError(f"{path}: criteria: portfolio_age_years must be >= 0, got {age}")
    buckets = {AGE_CRITERION: age_bucket(age)}
    for name in RATING_CRITERIA:
        level = _require(raw, name, path)
        if level not in RATING_LEVELS:
            raise ConfigError(f"{path}: criteria: {name} must be one of {RATING_LEVELS}, got {level!r}")
        buckets[name] = level
    return buckets


def load_portfolio(path: Path, horizon: int, weights: dict[str, dict[str, float]] | None) -> PortfolioSpec:
    """The portfolio of a JSON file, with its sigma resolved and its chronicle ``horizon`` years long.

    ``sigma`` is read as given; without it, ``criteria`` is scored on
    ``weights``, the run's weight matrix (None if the run has none). Given
    both, ``sigma`` wins and ``criteria`` is still checked. The chronicle
    comes from at most one of ``chronicle_csv`` and ``chronicle``; with
    neither, it is ``horizon`` years at the retained loss ratio.
    """
    data = _known(_load_json(path), (
        "id", "initial_premium", "renewal", "profit_share_rate", "tax_rate", "retained_loss_ratio",
        "sigma", "criteria", "reversion_speed", "chronicle_csv", "chronicle",
    ), path)
    mean_sp = _float(data, "retained_loss_ratio", path)

    if "chronicle_csv" in data and "chronicle" in data:
        raise ConfigError(f"{path}: fields 'chronicle_csv' and 'chronicle' conflict; give at most one")
    if "chronicle_csv" in data:
        chronicle = load_chronicle(_resolve(path, "chronicle_csv", data["chronicle_csv"]))
    elif "chronicle" in data:
        chronicle = _floats(data["chronicle"], path, "chronicle")
    else:
        try:
            chronicle = (mean_sp,) * horizon
        except (MemoryError, OverflowError):
            raise ConfigError(f"{path}: horizon={horizon} is too long to repeat the retained loss ratio over") from None

    sigma = _float(data, "sigma", path, default=None)
    buckets = _parse_criteria(data["criteria"], path) if "criteria" in data else None
    if sigma is None:
        if buckets is None:
            raise ConfigError(f"{path}: missing field 'sigma' or 'criteria'")
        if weights is None:
            raise ConfigError(f"{path}: field 'criteria' needs a weight matrix, and the run config names no 'weights'")
        sigma = lognormal_sigma(volatility_score(buckets, weights))

    with naming(path):
        portfolio = PortfolioSpec(
            id=_file_name(_require(data, "id", path), path, "id"),
            initial_premium=_float(data, "initial_premium", path),
            chronicle=chronicle,
            renewal=_parse_renewal(data, path),
            profit_share_rate=_float(data, "profit_share_rate", path),
            tax_rate=_float(data, "tax_rate", path),
            mean_sp=mean_sp,
            sigma=sigma,
            reversion_speed=_float(data, "reversion_speed", path, default=DEFAULT_REVERSION_SPEED),
        )
    if portfolio.horizon != horizon:
        raise ConfigError(f"{path}: the chronicle covers {portfolio.horizon} years, the run horizon is {horizon}")
    return portfolio


def load_replay_pvfp(path: Path, spread_fn: SpreadFunction) -> list[tuple[str, PvfpStatistics]]:
    """The (id, report row) pairs of a replay file, each row's spread given by ``spread_fn``.

    Each row needs an id no other row has, mean_pvfp > 0 and vol_pvfp >= 0,
    and a valid report row (see ``PvfpStatistics``: finite, pvfp_tsr != 0).
    """
    data = _load_json(path, top=list)
    if not data:
        raise ConfigError(f"{path}: expected a non-empty JSON array of portfolio rows")
    rows = []
    seen = set()
    for entry in data:
        if not isinstance(entry, dict):
            raise ConfigError(f"{path}: replay rows must be JSON objects")
        _known(entry, ("id", "mean_pvfp", "vol_pvfp", "pvfp_tsr", "pvfp_tsr_spread"), path)
        row_id = _expect(_require(entry, "id", path), str, path, "id")
        if row_id in seen:
            raise ConfigError(f"{path}: portfolio id {row_id!r} is used in more than one row")
        seen.add(row_id)
        mean_pvfp, vol_pvfp, pvfp_tsr, pvfp_tsr_spread = (
            _float(entry, key, path) for key in ("mean_pvfp", "vol_pvfp", "pvfp_tsr", "pvfp_tsr_spread")
        )
        if not mean_pvfp > 0.0:
            raise ConfigError(f"{path}: row {row_id!r}: field 'mean_pvfp' must be > 0, got {mean_pvfp!r}")
        if not vol_pvfp >= 0.0:
            raise ConfigError(f"{path}: row {row_id!r}: field 'vol_pvfp' must be >= 0, got {vol_pvfp!r}")
        with naming(path, f"row {row_id!r}: "):
            spread = spread_fn.spread_for(vol_pvfp / mean_pvfp)
            rows.append((row_id, PvfpStatistics(mean_pvfp, vol_pvfp, spread, pvfp_tsr, pvfp_tsr_spread)))
    return rows
