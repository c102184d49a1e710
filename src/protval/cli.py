"""Command-line driver tying the valuation pipeline together.

Subcommands:

* ``price-cap``: value the remuneration option and report its net cost.
* ``simulate``: emit loss-ratio scenario, fan-chart and histogram files.
* ``value``: full underwriting-risk report (or replay of pre-computed
  PVFP figures, which isolates the report arithmetic).
* ``calibrate-spread``: fit the risk-aversion spread function.

Every run writes a manifest with the config hash, seed and engine version.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Callable

import numpy as np

from . import __version__, reports
from .cap import CapValuation, cap_strip, price_cap
from .config import (
    ConfigError,
    RunConfig,
    load_cap_inputs,
    load_curve,
    load_portfolio,
    load_replay_pvfp,
    load_run_config,
    load_vols,
    load_weight_matrix,
    naming,
)
from .curves import ZeroCurve
from .loss import draw_initial_ratios, standard_normals
from .projection import PortfolioSpec, pvfp_of_chronicle, pvfp_rows
from .risk import PvfpStatistics, SpreadFunction, aggregate, pvfp_stats

# Draws valued per pvfp_rows call in value. Each slice's 1,024 x H paths
# reuse the memory the slice before freed, where a whole n x H matrix per
# portfolio has every page faulted in anew. pvfp_rows sums each row on its
# own, so the samples have the same bits as one whole-matrix call.
_BLOCK_ROWS = 1024


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; ``main`` only reads it."""
    parser = argparse.ArgumentParser(
        prog="engine",
        description="Valuation engine for aggregate-data protection portfolios.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, run: Callable[[RunConfig], None], with_sim_flags: bool) -> None:
        p.set_defaults(run=run)
        p.add_argument("--config", required=True, help="Path to the JSON run config.")
        p.add_argument("--out", default=None, help="Output directory (overrides config).")
        if with_sim_flags:
            p.add_argument("--seed", type=int, default=None, help="Simulation seed.")
            p.add_argument("--scenarios", type=int, default=None, help="Scenario count.")
            p.add_argument(
                "--workers", type=int, default=None,
                help="Accepted and checked (>= 1); changes neither the output nor the speed.",
            )

    add_common(sub.add_parser("price-cap", help="Value the distributor remuneration cap."), cmd_price_cap, False)
    add_common(sub.add_parser("simulate", help="Generate loss-ratio scenario files."), cmd_simulate, True)
    add_common(sub.add_parser("value", help="Produce the underwriting-risk report."), cmd_value, True)
    add_common(sub.add_parser("calibrate-spread", help="Fit the spread function."), cmd_calibrate_spread, False)
    return parser


def _load_config(args: argparse.Namespace) -> RunConfig:
    workers = getattr(args, "workers", None)
    if workers is not None and workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {workers}")
    return load_run_config(
        args.config,
        seed=getattr(args, "seed", None),
        scenarios=getattr(args, "scenarios", None),
        out=args.out,
    )


def _pct(value: float, decimals: int = 0) -> str:
    """Percent display, e.g. _pct(0.0208, 2) == '2.08%'."""
    return f"{value * 100:.{decimals}f}%"


def _money(value: float) -> str:
    return f"{value:,.2f}"


def _spread_function(config: RunConfig) -> SpreadFunction:
    if config.spread_fn is None:
        raise ConfigError(f"{config.config_path}: 'spread_points' is required for this command")
    return config.spread_fn


def cmd_price_cap(config: RunConfig) -> None:
    if config.cap_spec_path is None:
        raise ConfigError(f"{config.config_path}: 'cap_spec' is required for price-cap")
    curve, vols = load_curve(config), load_vols(config)
    spec, booked_flows_pv, replay = load_cap_inputs(config.cap_spec_path, config.spot_index_rate)
    # The spec and the vols are checked at load, so a strip that cannot be built comes from the curve.
    with naming(config.curve_csv):
        strip = cap_strip(spec, curve, vols)
    # A caplet or an aggregate outside the float range comes from the replay
    # figures, or else from any of the files the caplets are priced from.
    sources = [config.cap_spec_path] + ([config.curve_csv, config.vols_csv] if replay is None else [])
    with naming(", ".join(map(str, sources))):
        if replay is None:
            values, deterministic = price_cap(strip)
            replay = [-v for v in values], -deterministic  # insurer costs, as a replay block holds them
        valuation = CapValuation(*replay, booked_flows_pv, config.tax_rate)

    reports.write_cap_report(config.output_dir / "cap_report.csv", strip, valuation)

    for name in CapValuation.AGGREGATES:
        print(f"{name.replace('_', ' '):<21}{_money(getattr(valuation, name))}")


def _load_portfolios(config: RunConfig) -> list[PortfolioSpec]:
    """The run's portfolios.

    Every check runs here, so a bad portfolio stops the run before any output is written.
    """
    if not config.portfolio_paths:
        raise ConfigError(f"{config.config_path}: 'portfolios' is required for this command")
    weights = load_weight_matrix(config.weights_path) if config.weights_path else None
    portfolios = [load_portfolio(p, config.horizon, weights) for p in config.portfolio_paths]
    seen = {}
    for path, portfolio in zip(config.portfolio_paths, portfolios):
        if portfolio.id in seen:
            raise ConfigError(f"portfolio id {portfolio.id!r} is used in both {seen[portfolio.id]} and {path}")
        seen[portfolio.id] = path
    return portfolios


def _simulate_portfolio(config: RunConfig, z: np.ndarray, portfolio: PortfolioSpec) -> str:
    """Write one portfolio's files, histogram first (a ratio too large to bin leaves none); return its summary line.

    Only the year-1 ratios are held whole: each writer takes its paths from them.
    """
    out = config.output_dir
    chronicle, nu = portfolio.chronicle, portfolio.reversion_speed
    with naming(f"portfolio {portfolio.id!r}"):
        sp1 = draw_initial_ratios(portfolio.mu, portfolio.sigma, z)
        reports.write_histogram_csv(out / f"{portfolio.id}_histogram.csv", sp1)
        floored = reports.write_scenarios_csv(out / f"{portfolio.id}_scenarios.csv", sp1, chronicle, nu)
        reports.write_fan_chart_csv(out / f"{portfolio.id}_fan_chart.csv", sp1, chronicle, nu)
    return f"{portfolio.id}: {len(sp1)} scenarios x {len(chronicle)} years, seed {config.seed}, floored {floored}"


def cmd_simulate(config: RunConfig) -> None:
    portfolios = _load_portfolios(config)
    with naming(config.config_path, f"scenarios={config.scenarios}: "):
        z = standard_normals(config.scenarios, config.seed)
    lines = [_simulate_portfolio(config, z, portfolio) for portfolio in portfolios]
    print("\n".join(lines))


def _value_portfolio(
    curve: ZeroCurve,
    riskfree: np.ndarray,
    spread_fn: SpreadFunction,
    z: np.ndarray,
    portfolio: PortfolioSpec,
) -> tuple[PvfpStatistics, np.ndarray]:
    """One portfolio's risk report row and PVFP samples; an error names the portfolio.

    ``riskfree`` holds the run's risk-free discount factors.
    """
    with naming(f"portfolio {portfolio.id!r}"):
        samples = np.concatenate([
            pvfp_rows(portfolio, portfolio.paths(z[lo:lo + _BLOCK_ROWS])[0], riskfree)
            for lo in range(0, len(z), _BLOCK_ROWS)
        ])
        mean, vol = pvfp_stats(samples)
        if mean <= 0.0:
            raise ValueError(f"mean PVFP must be > 0 to price its risk, got {mean!r}")
        spread = spread_fn.spread_for(vol / mean)
        discounts = np.stack((riskfree, curve.spread_discounts(portfolio.horizon, spread)))
        pvfp_tsr, pvfp_spread = pvfp_of_chronicle(portfolio, discounts).tolist()
        return PvfpStatistics(mean, vol, spread, pvfp_tsr, pvfp_spread), samples


def cmd_value(config: RunConfig) -> None:
    """Price every portfolio, or read the replayed rows, and total them; only then write and print anything."""
    spread_fn = _spread_function(config)

    portfolios: list[PortfolioSpec] = []
    samples: list[np.ndarray] = []  # each portfolio's PVFP vector, held until every portfolio is priced
    if config.replay_pvfp_path is not None:
        rows = load_replay_pvfp(config.replay_pvfp_path, spread_fn)
    else:
        portfolios = _load_portfolios(config)
        curve = load_curve(config)
        # The risk-free factors for years 1..horizon, checked that none overflows. One that
        # underflows to 0 drops its year from the PVFP and passes; a spreaded factor is no larger.
        with naming(config.curve_csv):
            riskfree = curve.spread_discounts(config.horizon)
        with naming(config.config_path, f"scenarios={config.scenarios}: "):
            z = standard_normals(config.scenarios, config.seed)
        rows = []
        for portfolio in portfolios:
            stats, pvfps = _value_portfolio(curve, riskfree, spread_fn, z, portfolio)
            rows.append((portfolio.id, stats))
            samples.append(pvfps)
    with naming(config.replay_pvfp_path or config.config_path):
        totals = aggregate([stats for _, stats in rows])

    if portfolios:
        for portfolio, pvfps in zip(portfolios, samples):
            reports.write_pvfp_samples_csv(config.output_dir / f"{portfolio.id}_pvfp_samples.csv", pvfps)
        echo_rows = [(p.id, p.mean_sp, p.mu, p.sigma) for p in portfolios]
        reports.write_params_echo_csv(config.output_dir / "lognormal_params.csv", echo_rows)
        print("lognormal parameters:")
        print("  portfolio        mean_sp       mu    sigma")
        for name, mean_sp, mu, sigma in echo_rows:
            print(f"  {name:<15} {_pct(mean_sp):>8} {_pct(mu):>8} {_pct(sigma):>8}")
        print()
    reports.write_risk_report_csv(config.output_dir / "risk_report.csv", rows, totals)

    print("risk report:")
    print("  portfolio         mean_pvfp     vol_pvfp  spread  pvfp_tsr_spread      pvfp_tsr           cur")
    for name, stats in rows:
        print(
            f"  {name:<15} {_money(stats.mean):>12} {_money(stats.vol):>12} "
            f"{_pct(stats.spread, 2):>7} {_money(stats.pvfp_spread):>16} "
            f"{_money(stats.pvfp_tsr):>13} {_money(stats.cur):>13}"
        )
    print(
        f"  {'TOTAL':<15} {'':>12} {'':>12} {'':>7} {'':>16} "
        f"{_money(totals[0]):>13} {_money(totals[1]):>13}"
    )


def cmd_calibrate_spread(config: RunConfig) -> None:
    spread_fn = _spread_function(config)
    reports.write_spread_function(config.output_dir / "spread_function.json", spread_fn)
    print(f"spread(vol) = a * ln(b * vol + 1) with a = {spread_fn.a:.6f}, b = {spread_fn.b:.4f}")


def main(argv: list[str] | None = None) -> int:
    """Run one command, numpy's overflow and invalid errors raised; an error ends in one ``error:`` line, exit 1."""
    args = build_parser().parse_args(argv)
    try:
        with np.errstate(over="raise", invalid="raise"):
            config = _load_config(args)
            args.run(config)
            reports.write_manifest(config.output_dir / f"{args.command}_manifest.json", args.command, config)
        return 0
    except (ValueError, FloatingPointError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
