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
import os
import pickle
import sys
import warnings
from typing import Callable, NoReturn, TypeVar

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
)
from .curves import ZeroCurve
from .loss import draw_initial_ratios, lognormal_mu, reverting_paths, standard_normals
from .projection import PortfolioSpec, pvfp, pvfp_of_ratios
from .risk import PvfpStatistics, SpreadFunction, aggregate, pvfp_stats

T = TypeVar("T")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="engine",
        description="Valuation engine for aggregate-data protection portfolios.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, with_sim_flags: bool) -> None:
        p.add_argument("--config", required=True, help="Path to the JSON run config.")
        p.add_argument("--out", default=None, help="Output directory (overrides config).")
        if with_sim_flags:
            p.add_argument("--seed", type=int, default=None, help="Simulation seed.")
            p.add_argument("--scenarios", type=int, default=None, help="Scenario count.")
            p.add_argument(
                "--workers", type=int, default=None,
                help="Accepted and checked (>= 1); changes neither the output nor the speed.",
            )

    add_common(sub.add_parser("price-cap", help="Value the distributor remuneration cap."), False)
    add_common(sub.add_parser("simulate", help="Generate loss-ratio scenario files."), True)
    add_common(sub.add_parser("value", help="Produce the underwriting-risk report."), True)
    add_common(sub.add_parser("calibrate-spread", help="Fit the spread function."), False)
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


def _spread_function(config: RunConfig) -> SpreadFunction:
    if config.spread_fn is None:
        raise ConfigError(f"{config.config_path}: 'spread_points' is required for this command")
    return config.spread_fn


def cmd_price_cap(config: RunConfig) -> int:
    if config.cap_spec_path is None:
        raise ConfigError(f"{config.config_path}: 'cap_spec' is required for price-cap")
    curve, vols = load_curve(config), load_vols(config)
    spec, booked_flows_pv, replay = load_cap_inputs(config.cap_spec_path, config.spot_index_rate)
    # The spec and the vols are checked at load, so a strip that cannot be built
    # or a caplet that cannot be priced comes from the curve.
    try:
        strip = cap_strip(spec, curve, vols, config.spot_index_rate)
        if replay is None:
            values, deterministic = price_cap(strip)
            replay = [-v for v in values], -deterministic  # insurer costs, as a replay block holds them
    except ValueError as exc:
        raise ConfigError(f"{config.curve_csv}: {exc}") from exc
    valuation = CapValuation(*replay, booked_flows_pv, config.tax_rate)

    config.output_dir.mkdir(parents=True, exist_ok=True)
    reports.write_cap_report(config.output_dir / "cap_report.csv", strip, valuation)
    reports.write_manifest(config.output_dir, "price-cap", config)

    print(f"stochastic value     {reports.money(valuation.stochastic_value)}")
    print(f"deterministic value  {reports.money(valuation.deterministic_value)}")
    print(f"valuation spread     {reports.money(valuation.valuation_spread)}")
    print(f"booked flows pv      {reports.money(valuation.booked_flows_pv)}")
    print(f"crd                  {reports.money(valuation.crd)}")
    return 0


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


def _draw_normals(config: RunConfig) -> np.ndarray:
    """The run's standard normals; a count too large to draw raises a ConfigError naming the run config."""
    try:
        return standard_normals(config.scenarios, config.seed)
    except (MemoryError, ValueError) as exc:
        raise ConfigError(f"{config.config_path}: scenarios={config.scenarios}: {exc}") from exc


def _simulate_portfolio(config: RunConfig, z: np.ndarray, portfolio: PortfolioSpec) -> str:
    """Write one portfolio's scenario, fan-chart and histogram files; return its summary line."""
    sp1 = draw_initial_ratios(lognormal_mu(portfolio.mean_sp, portfolio.sigma), portfolio.sigma, z)
    paths, floored = reverting_paths(sp1, portfolio.chronicle, portfolio.reversion_speed)
    out = config.output_dir
    reports.write_scenarios_csv(out / f"{portfolio.id}_scenarios.csv", paths)
    reports.write_fan_chart_csv(out / f"{portfolio.id}_fan_chart.csv", paths)
    reports.write_histogram_csv(out / f"{portfolio.id}_histogram.csv", paths[:, 0])
    n_scenarios, horizon = paths.shape
    return f"{portfolio.id}: {n_scenarios} scenarios x {horizon} years, seed {config.seed}, floored {floored}"


def _run_chunk(work: Callable[[PortfolioSpec], T], chunk: list[PortfolioSpec], write_fd: int) -> NoReturn:
    """In a forked child: write the pickled results of ``work`` over ``chunk``, or its first exception, and exit.

    ``os._exit`` skips the parent's cleanup and leaves unflushed stdio buffers unwritten.
    """
    status = 1
    try:
        try:
            outcome: list[T] | BaseException = [work(portfolio) for portfolio in chunk]
        except BaseException as exc:  # handed to the parent, which raises it
            outcome = exc
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(pickle.dumps(outcome))
        status = 0
    finally:
        os._exit(status)


def _map_portfolios(command: str, work: Callable[[PortfolioSpec], T], portfolios: list[PortfolioSpec]) -> list[T]:
    """``[work(p) for p in portfolios]``, run in forked processes when more than one core is usable.

    It uses min(usable cores, portfolios) processes; with one, it runs in-process.
    Otherwise it splits the portfolios into that many contiguous chunks and forks
    one child per chunk, which sends back the results of its chunk, or its first
    exception, through a pipe. The parent does no portfolio work: it reads each
    pipe to EOF in chunk order, reaps every child on every path, and raises the
    first failure in portfolio order. A child that did not send a whole answer
    ends the run with ``ChildProcessError``.

    The caller loads the inputs and draws the standard normals before this call,
    so a portfolio's results and files are the same whichever process makes them.
    Importing numpy leaves OpenBLAS's idle thread alive, and a fork copies only
    the calling thread; that is safe here because ``src/`` calls no BLAS routine
    (no ``@``, ``dot`` or ``linalg``), so no child needs that pool or its locks.
    For the same reason the fork ignores CPython 3.12+'s ``DeprecationWarning``
    about forking a multi-threaded process: raised as an error in the parent,
    it would lose the pid of a child that already exists.
    """
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    processes = min(cores, len(portfolios))
    if processes < 2:
        return [work(portfolio) for portfolio in portfolios]
    bounds = [len(portfolios) * k // processes for k in range(processes + 1)]
    chunks = [portfolios[lo:hi] for lo, hi in zip(bounds, bounds[1:])]

    children, statuses = [], []  # (pid, read end of its pipe) and wait status, in chunk order
    try:
        for chunk in chunks:
            read_fd, write_fd = os.pipe()
            try:
                with warnings.catch_warnings():
                    warnings.filterwarnings("ignore", r".*use of fork\(\) may lead to deadlocks", DeprecationWarning)
                    pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                os.close(read_fd)
                _run_chunk(work, chunk, write_fd)
            os.close(write_fd)
            children.append((pid, os.fdopen(read_fd, "rb")))
        answers = [pipe.read() for _, pipe in children]
    finally:
        for pid, pipe in children:
            pipe.close()  # a child still writing gets EPIPE and exits, so the wait cannot hang on it
            statuses.append(os.waitpid(pid, 0)[1])

    results: list[T] = []
    for chunk, answer, status in zip(chunks, answers, statuses):
        if status != 0 or not answer:
            ids = ", ".join(repr(portfolio.id) for portfolio in chunk)
            raise ChildProcessError(
                f"a {command} process ended abruptly; the files of portfolio(s) {ids} may be incomplete"
            )
        outcome = pickle.loads(answer)  # bytes our own child wrote
        if isinstance(outcome, BaseException):
            raise outcome
        results += outcome
    return results


def cmd_simulate(config: RunConfig) -> int:
    portfolios = _load_portfolios(config)
    z = _draw_normals(config)
    config.output_dir.mkdir(parents=True, exist_ok=True)
    for line in _map_portfolios("simulate", functools.partial(_simulate_portfolio, config, z), portfolios):
        print(line)
    reports.write_manifest(config.output_dir, "simulate", config)
    return 0


def _value_portfolio(
    config: RunConfig, curve: ZeroCurve, spread_fn: SpreadFunction, z: np.ndarray, portfolio: PortfolioSpec
) -> PvfpStatistics:
    """Write one portfolio's PVFP samples file; return its risk report row.

    The row is built, and so checked, before the file is written: a portfolio that cannot be priced writes nothing.
    """
    mu = lognormal_mu(portfolio.mean_sp, portfolio.sigma)
    samples = pvfp_of_ratios(portfolio, draw_initial_ratios(mu, portfolio.sigma, z), curve)
    mean, vol = pvfp_stats(samples)
    if mean <= 0.0:
        raise ValueError(f"portfolio {portfolio.id!r}: mean PVFP must be > 0 to price its risk, got {mean!r}")
    spread = spread_fn.spread_for(vol / mean)
    pvfp_tsr = pvfp(portfolio, portfolio.chronicle, curve)
    pvfp_spread = pvfp(portfolio, portfolio.chronicle, curve, extra_spread=spread)
    try:
        stats = PvfpStatistics(mean, vol, spread, pvfp_tsr, pvfp_spread)
    except ValueError as exc:
        raise ValueError(f"portfolio {portfolio.id!r}: {exc}") from exc
    reports.write_pvfp_samples_csv(config.output_dir / f"{portfolio.id}_pvfp_samples.csv", samples)
    return stats


def cmd_value(config: RunConfig) -> int:
    spread_fn = _spread_function(config)

    if config.replay_pvfp_path is not None:
        rows = [
            (row_id, PvfpStatistics(mean, vol, spread_fn.spread_for(vol / mean), pvfp_tsr, pvfp_tsr_spread))
            for row_id, mean, vol, pvfp_tsr, pvfp_tsr_spread in load_replay_pvfp(config.replay_pvfp_path)
        ]
        config.output_dir.mkdir(parents=True, exist_ok=True)
    else:
        portfolios = _load_portfolios(config)
        curve = load_curve(config)
        z = _draw_normals(config)
        config.output_dir.mkdir(parents=True, exist_ok=True)
        value = functools.partial(_value_portfolio, config, curve, spread_fn, z)
        rows = [(p.id, stats) for p, stats in zip(portfolios, _map_portfolios("value", value, portfolios))]
        echo_rows = [(p.id, p.mean_sp, lognormal_mu(p.mean_sp, p.sigma), p.sigma) for p in portfolios]

        reports.write_params_echo_csv(config.output_dir / "lognormal_params.csv", echo_rows)
        print("lognormal parameters:")
        print("  portfolio        mean_sp       mu    sigma")
        for name, mean_sp, mu, sigma in echo_rows:
            print(f"  {name:<15} {reports.pct(mean_sp):>8} {reports.pct(mu):>8} {reports.pct(sigma):>8}")
        print()

    totals = aggregate([stats for _, stats in rows])
    reports.write_risk_report_csv(config.output_dir / "risk_report.csv", rows, totals)
    reports.write_manifest(config.output_dir, "value", config)

    print("risk report:")
    print("  portfolio         mean_pvfp     vol_pvfp  spread  pvfp_tsr_spread      pvfp_tsr           cur")
    for name, stats in rows:
        print(
            f"  {name:<15} {reports.money(stats.mean):>12} {reports.money(stats.vol):>12} "
            f"{reports.pct(stats.spread, 2):>7} {reports.money(stats.pvfp_spread):>16} "
            f"{reports.money(stats.pvfp_tsr):>13} {reports.money(stats.cur):>13}"
        )
    print(
        f"  {'TOTAL':<15} {'':>12} {'':>12} {'':>7} {'':>16} "
        f"{reports.money(totals[0]):>13} {reports.money(totals[1]):>13}"
    )
    return 0


def cmd_calibrate_spread(config: RunConfig) -> int:
    spread_fn = _spread_function(config)
    config.output_dir.mkdir(parents=True, exist_ok=True)
    out = config.output_dir / "spread_function.json"
    out.write_text(
        f'{{\n  "a": {spread_fn.a!r},\n  "b": {spread_fn.b!r},\n  "c": 1.0\n}}\n',
        encoding="utf-8",
    )
    reports.write_manifest(config.output_dir, "calibrate-spread", config)
    print(f"spread(vol) = a * ln(b * vol + 1) with a = {spread_fn.a:.6f}, b = {spread_fn.b:.4f}")
    return 0


_COMMANDS = {
    "price-cap": cmd_price_cap,
    "simulate": cmd_simulate,
    "value": cmd_value,
    "calibrate-spread": cmd_calibrate_spread,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args)
        return _COMMANDS[args.command](config)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
