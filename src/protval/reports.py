"""CSV and manifest emission.

CSV files carry full-precision floats (shortest round-trip repr) so reruns
can be compared byte for byte; human-readable percent formatting is the
CLI's job. Line endings are pinned to "\\n" for the same reason.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .cap import CapStrip, CapValuation
from .config import RunConfig
from .loss import LossScenarioSet
from .risk import PvfpStatistics

FAN_PROBS = (0.01, 0.25, 0.50, 0.75, 0.99)
FAN_LABELS = ("q01", "q25", "q50", "q75", "q99")


def _fmt(value: float) -> str:
    return repr(float(value))


def _writer(handle):
    return csv.writer(handle, lineterminator="\n")


def write_manifest(out_dir: Path, command: str, config: RunConfig) -> Path:
    """Record what produced this output directory, enabling exact reruns."""
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{command}_manifest.json"
    payload = {
        "command": command,
        "config_path": str(config.config_path),
        "config_sha256": config.config_sha256,
        "seed": config.seed,
        "scenarios": config.scenarios,
        "horizon": config.horizon,
        "engine_version": __version__,
    }
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return path


def write_cap_report(path: Path, strip: CapStrip, valuation: CapValuation) -> None:
    """Cap valuation as a metric-per-row table over period indices 0..n.

    The input rows print ``strip``, the table the caplets were priced from.
    ``valuation`` is cost-signed (insurer costs negative), matching how
    remuneration reports are presented.
    """
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = _writer(handle)
        writer.writerow(["metric"] + [str(j) for j in range(len(strip.notionals))])
        writer.writerow(["notional"] + [_fmt(n) for n in strip.notionals])
        writer.writerow(["discount_factor"] + [_fmt(df) for df in strip.discount_factors])
        writer.writerow(["forward_rate"] + [_fmt(f) for f in strip.forwards])
        writer.writerow(["strike"] + [_fmt(k) for k in strip.strikes])
        writer.writerow(["volatility"] + [_fmt(v) for v in strip.vols])
        writer.writerow(["caplet_cost"] + [_fmt(v) for v in valuation.caplet_values])
        writer.writerow(["stochastic_value", _fmt(valuation.stochastic_value)])
        writer.writerow(["deterministic_value", _fmt(valuation.deterministic_value)])
        writer.writerow(["valuation_spread", _fmt(valuation.valuation_spread)])
        writer.writerow(["booked_flows_pv", _fmt(valuation.booked_flows_pv)])
        writer.writerow(["crd", _fmt(valuation.crd)])


def write_scenarios_csv(path: Path, scenario_set: LossScenarioSet) -> None:
    """One (scenario index, year_1..year_H) row per path; numbers need no quoting, so no ``csv.writer``."""
    header = ["scenario"] + [f"year_{t}" for t in range(1, scenario_set.horizon + 1)]
    with path.open("w", newline="", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\n")
        handle.writelines(
            f"{i},{','.join(map(repr, row.tolist()))}\n" for i, row in enumerate(scenario_set.scenarios)
        )


def write_fan_chart_csv(path: Path, scenario_set: LossScenarioSet) -> None:
    fan = scenario_set.quantile_fan(FAN_PROBS)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = _writer(handle)
        writer.writerow(["year"] + list(FAN_LABELS))
        for t, quantiles in enumerate(fan, start=1):
            writer.writerow([str(t)] + [_fmt(q) for q in quantiles])


def write_histogram_csv(path: Path, bins: Sequence[tuple[float, int]], bin_width: float) -> None:
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = _writer(handle)
        writer.writerow(["bin_left", "bin_right", "count"])
        for left, count in bins:
            writer.writerow([_fmt(left), _fmt(left + bin_width), str(count)])


def write_pvfp_samples_csv(path: Path, samples: np.ndarray) -> None:
    """One (scenario index, PVFP) row per entry of the PVFP vector."""
    with path.open("w", newline="", encoding="utf-8") as handle:
        handle.write("scenario,pvfp\n")
        handle.writelines(f"{i},{value!r}\n" for i, value in enumerate(samples.tolist()))


def write_params_echo_csv(path: Path, rows: Sequence[tuple[str, float, float, float]]) -> None:
    """Lognormal parameter echo: (portfolio, retained ratio, mu, sigma) rows."""
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = _writer(handle)
        writer.writerow(["portfolio", "mean_sp", "mu", "sigma"])
        for name, mean_sp, mu, sigma in rows:
            writer.writerow([name, _fmt(mean_sp), _fmt(mu), _fmt(sigma)])


def write_risk_report_csv(
    path: Path,
    rows: Sequence[tuple[str, PvfpStatistics]],
    totals: tuple[float, float],
) -> None:
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = _writer(handle)
        writer.writerow(
            ["portfolio", "mean_pvfp", "vol_pvfp", "spread", "pvfp_tsr_spread", "pvfp_tsr", "cur"]
        )
        for name, stats in rows:
            writer.writerow(
                [
                    name,
                    _fmt(stats.mean),
                    _fmt(stats.vol),
                    _fmt(stats.spread),
                    _fmt(stats.pvfp_spread),
                    _fmt(stats.pvfp_tsr),
                    _fmt(stats.cur),
                ]
            )
        writer.writerow(["TOTAL", "", "", "", "", _fmt(totals[0]), _fmt(totals[1])])


def pct(value: float, decimals: int = 0) -> str:
    """Percent display, e.g. pct(0.0208, 2) == '2.08%'."""
    return f"{value * 100:.{decimals}f}%"


def money(value: float) -> str:
    return f"{value:,.2f}"
