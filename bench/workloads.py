"""Seeded input generation and the job list of each benchmark workload.

Everything the engine reads is generated here from the workload seed with
``random.Random``, so the same seed gives the same files. Generated configs
omit ``output_dir``: the job passes ``--out``, because the engine rejects a
flag that contradicts its config file.

Portfolios are kept inside the model's domain (mean PVFP > 0). A
loss-making portfolio makes ``value`` fail with a misleading "relative
volatility must be >= 0" from ``SpreadFunction.spread_for``; that defect is
left to the engine and is not worked round here.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

WORKLOADS = ("value_paper", "simulate_fan", "book_close")

# The paper's calibration of the risk-aversion spread: 2% at a relative PVFP
# volatility of 10%, 3% at 20%. Fixed, so spread_function.json is a constant.
SPREAD_POINTS = [[0.10, 0.02], [0.20, 0.03]]
TAX_RATE = 0.275
MARKET = {"curve_csv": "curve.csv", "vols_csv": "vols.csv", "tax_rate": TAX_RATE}
RATING_LEVELS = ("strong", "moderate", "weak")
RATING_CRITERIA = ("homogeneity", "technical_bases_quality", "concentration", "moral_hazard", "litigation")


@dataclass
class Job:
    """One engine invocation and what its checks need to know."""

    name: str
    kind: str  # value | replay | simulate | price_cap | calibrate
    argv: list[str]
    out_dir: Path
    config: dict[str, Any]
    portfolios: list[dict[str, Any]] = field(default_factory=list)
    extra: dict[str, Any] = field(default_factory=dict)


@dataclass
class Workload:
    jobs: list[Job]
    market: dict[str, Any]
    weights: dict[str, Any]


def _write_json(path: Path, data: Any) -> None:
    path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")


def _write_csv(path: Path, header: tuple[str, str], rows: list[tuple[Any, Any]]) -> None:
    lines = [",".join(header)] + [f"{a!r},{b!r}" for a, b in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _market(rng: random.Random, inputs: Path) -> dict[str, Any]:
    tenors = [0, 1, 2, 3, 4, 5, 7, 10, 15, 20, 30]
    level = rng.uniform(0.012, 0.03)
    slope = rng.uniform(0.0002, 0.0012)
    curve = [(t, round(level + slope * t + rng.uniform(-0.001, 0.001), 6)) for t in tenors]
    fixings = [0, 1, 2, 3, 5, 7, 10, 15, 20, 30]
    vols = [(t, round(rng.uniform(0.12, 0.25), 4)) for t in fixings]
    _write_csv(inputs / "curve.csv", ("tenor_years", "zero_rate"), curve)
    _write_csv(inputs / "vols.csv", ("fixing_years", "black_vol"), vols)
    return {
        "curve": curve,
        "vols": vols,
        "spot_index_rate": round(level + rng.uniform(-0.002, 0.002), 6),
    }


def _weights(rng: random.Random, inputs: Path) -> dict[str, Any]:
    cells: dict[str, Any] = {
        "portfolio_age": {
            "lt_1y": round(rng.uniform(0.28, 0.34), 3),
            "lt_4y": round(rng.uniform(0.22, 0.27), 3),
            "ge_4y": round(rng.uniform(0.17, 0.21), 3),
        }
    }
    for name in RATING_CRITERIA:
        cells[name] = {
            "strong": round(rng.uniform(1.15, 1.3), 3),
            "moderate": 1.0,
            "weak": round(rng.uniform(0.75, 0.85), 3),
        }
    _write_json(inputs / "weights.json", cells)
    return cells


def _portfolio(
    rng: random.Random, inputs: Path, pid: str, kind: str, horizon: int
) -> dict[str, Any]:
    """One portfolio file. ``kind`` is ``fixed``, ``tacit`` or ``scored``.

    Direct-sigma portfolios get a flat chronicle of ``horizon`` years at the
    retained ratio. Scored ones carry their own chronicle CSV, drifting up
    for ten years, and a sigma from the weight grid. Ratios and sigmas are
    low enough that even a 50-scenario mean PVFP stays positive: over 25
    seeds of ``book_close``, the lowest expected mean PVFP was more than 6
    standard errors above zero.
    """
    data: dict[str, Any] = {
        "id": pid,
        "initial_premium": round(rng.uniform(1e5, 2e6), 2),
        "profit_share_rate": round(rng.uniform(0.3, 0.6), 2),
        "tax_rate": TAX_RATE,
        "reversion_speed": round(rng.uniform(0.7, 0.85), 2),
    }
    if kind == "fixed":
        data["renewal"] = {"mode": "fixed_term", "mean_remaining_term_months": rng.randint(60, 240)}
    else:
        data["renewal"] = {"mode": "tacit_renewal", "lapse_rate": round(rng.uniform(0.05, 0.25), 3)}
    if kind == "scored":
        start = round(rng.uniform(0.60, 0.72), 3)
        drift = rng.uniform(0.004, 0.01)
        chronicle = [(t, round(start + drift * min(t - 1, 10), 4)) for t in range(1, horizon + 1)]
        _write_csv(inputs / f"{pid}_chronicle.csv", ("year", "expected_sp"), chronicle)
        data["retained_loss_ratio"] = start
        data["chronicle_csv"] = f"{pid}_chronicle.csv"
        levels = ["moderate"] * 5
        for i in rng.sample(range(5), 2):
            levels[i] = rng.choice(RATING_LEVELS)
        data["criteria"] = {"portfolio_age_years": round(rng.uniform(0.5, 8.0), 1)}
        data["criteria"].update(zip(RATING_CRITERIA, levels))
        data["chronicle"] = [v for _, v in chronicle]
    else:
        data["retained_loss_ratio"] = round(rng.uniform(0.35, 0.7), 3)
        data["sigma"] = round(rng.uniform(0.12, 0.25), 3)
        data["chronicle"] = [data["retained_loss_ratio"]] * horizon
    on_disk = {k: v for k, v in data.items() if k != "chronicle"}
    _write_json(inputs / f"{pid}.json", on_disk)
    return data


def _run_config(inputs: Path, name: str, body: dict[str, Any]) -> Path:
    path = inputs / f"run_{name}.json"
    _write_json(path, body)
    return path


def _value_job(
    name: str, inputs: Path, out: Path, portfolios: list[dict[str, Any]],
    scenarios: int, engine_seed: int, horizon: int,
) -> Job:
    config = {
        "market": dict(MARKET),
        "portfolios": [f"{p['id']}.json" for p in portfolios],
        "weights": "weights.json",
        "scenarios": scenarios,
        "seed": engine_seed,
        "horizon": horizon,
        "spread_points": SPREAD_POINTS,
    }
    path = _run_config(inputs, name, config)
    out_dir = out / name
    return Job(name, "value", ["value", "--config", str(path), "--out", str(out_dir)],
               out_dir, config, portfolios)


def _cap_job(rng: random.Random, inputs: Path, out: Path, market: dict[str, Any]) -> Job:
    """A priced monthly strip of 361 caplets; no replay block, so Black-76 runs."""
    level = rng.uniform(1e6, 5e6)
    decay = rng.uniform(0.05, 0.2)
    notionals = [round(level * (1.0 - j / 360) * (1.0 - decay) ** (j / 12), 2) for j in range(361)]
    spec = {
        "strike": round(rng.uniform(0.012, 0.03), 4),
        "index_tenor_years": 3,
        "accrual_years": 1 / 12,
        "use_spot_for_first_period": True,
        "notionals": notionals,
        "booked_flows_pv": round(-rng.uniform(100.0, 5000.0), 2),
    }
    _write_json(inputs / "cap_spec.json", spec)
    config = {
        "market": {**MARKET, "spot_index_rate": market["spot_index_rate"]},
        "cap_spec": "cap_spec.json",
    }
    path = _run_config(inputs, "price_cap", config)
    out_dir = out / "price_cap"
    return Job("price_cap", "price_cap", ["price-cap", "--config", str(path), "--out", str(out_dir)],
               out_dir, config, extra={"spec": spec})


def _replay_job(rng: random.Random, inputs: Path, out: Path, rows: int) -> Job:
    replay = []
    for i in range(rows):
        tsr = round(rng.uniform(1e4, 2e6))
        mean = round(tsr * rng.uniform(0.97, 1.01))
        replay.append({
            "id": f"replay_{i:03d}",
            "mean_pvfp": mean,
            "vol_pvfp": round(mean * rng.uniform(0.001, 0.3)),
            "pvfp_tsr": tsr,
            "pvfp_tsr_spread": round(tsr * rng.uniform(0.85, 0.999)),
        })
    _write_json(inputs / "replay_pvfp.json", replay)
    config = {"replay_pvfp": "replay_pvfp.json", "spread_points": SPREAD_POINTS}
    path = _run_config(inputs, "value_replay", config)
    out_dir = out / "value_replay"
    return Job("value_replay", "replay", ["value", "--config", str(path), "--out", str(out_dir)],
               out_dir, config, extra={"replay": replay})


def _calibrate_job(inputs: Path, out: Path) -> Job:
    config = {"spread_points": SPREAD_POINTS}
    path = _run_config(inputs, "calibrate", config)
    out_dir = out / "calibrate"
    return Job("calibrate", "calibrate",
               ["calibrate-spread", "--config", str(path), "--out", str(out_dir)], out_dir, config)


def build(name: str, seed: int, root: Path) -> Workload:
    """Generate the inputs of workload ``name`` under ``root`` and list its jobs."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose one of {', '.join(WORKLOADS)}")
    rng = random.Random(f"{name}:{seed}")
    inputs = root / "inputs"
    out = root / "out"
    inputs.mkdir(parents=True)
    market = _market(rng, inputs)
    weights = _weights(rng, inputs)
    engine_seed = rng.randrange(2**31)

    if name == "value_paper":
        kinds = ["fixed", "tacit", "tacit", "scored"]
        portfolios = [_portfolio(rng, inputs, f"pf_{i}", k, 30) for i, k in enumerate(kinds)]
        jobs = [_value_job("value", inputs, out, portfolios, 10_000, engine_seed, 30)]
    elif name == "simulate_fan":
        portfolios = [_portfolio(rng, inputs, f"pf_{i}", k, 30) for i, k in enumerate(["fixed", "scored"])]
        config = {
            "portfolios": [f"{p['id']}.json" for p in portfolios],
            "weights": "weights.json",
            "scenarios": 10_000,
            "seed": engine_seed,
            "horizon": 30,
        }
        path = _run_config(inputs, "simulate", config)
        out_dir = out / "simulate"
        jobs = [Job("simulate", "simulate",
                    ["simulate", "--config", str(path), "--out", str(out_dir), "--workers", "2"],
                    out_dir, config, portfolios)]
    else:
        kinds = ["fixed", "tacit", "scored"]
        portfolios = [_portfolio(rng, inputs, f"book_{i:03d}", kinds[i % 3], 40) for i in range(200)]
        jobs = [
            _value_job("value_book", inputs, out, portfolios, 50, engine_seed, 40),
            _cap_job(rng, inputs, out, market),
            _replay_job(rng, inputs, out, 200),
            _calibrate_job(inputs, out),
        ]
    return Workload(jobs, market, weights)
