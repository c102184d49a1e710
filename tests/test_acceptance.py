"""Acceptance suite: one test per exit criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion
lines. Published absolute PVFP levels are out of reach by design (the
underlying P&L model is not public); the report arithmetic is certified
through replay instead.
"""

from __future__ import annotations

import csv
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from protval.cap import CapValuation, caplet_price, norm_cdf
from protval.loss import lognormal_mu, lognormal_sigma, reverting_paths, standard_normals
from protval.risk import calibrate_spread
from protval.cli import main

from .conftest import (
    FIGURE_BOOKED_FLOWS_PV,
    FIGURE_CAPLET_COSTS,
    FIGURE_TAX_RATE,
    SPREAD_CALIBRATION_POINTS,
    TABLE_MEAN_SIGMA,
    make_portfolio,
)
from .test_cap import monte_carlo_caplet
from .test_cli import forks, sample_config, set_usable_cores  # forks is a fixture
from .test_projection import one_year_result


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"[criterion {criterion:2d}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, detail


def test_criterion_01_lognormal_mu_echo():
    expected = (-0.069, -0.938, -0.545)
    published = (-0.07, -0.94, -0.54)
    computed = [lognormal_mu(m, s) for m, s in TABLE_MEAN_SIGMA]
    ok = all(abs(c - e) < 5e-4 for c, e in zip(computed, expected)) and all(
        abs(c - p) <= 0.006 for c, p in zip(computed, published)
    )
    report(1, ok, f"mu = {[f'{c:.3f}' for c in computed]} vs published {published} (+/-0.6pp)")


def test_criterion_02_spread_calibration():
    start = time.perf_counter()
    fn = calibrate_spread(SPREAD_CALIBRATION_POINTS)
    elapsed_ms = (time.perf_counter() - start) * 1e3
    ok = abs(fn.a - 0.0208) <= 1e-4 and abs(fn.b - 16.188) <= 0.01
    report(2, ok, f"a = {fn.a:.6f} (0.0208 +/- 0.0001), b = {fn.b:.4f} (16.188 +/- 0.01), {elapsed_ms:.2f} ms")


def test_criterion_03_relative_volatility_spreads():
    fn = calibrate_spread(SPREAD_CALIBRATION_POINTS)
    inputs = ((3_691.0, 1_150_605.0), (1_074.0, 54_674.0), (48_523.0, 855_937.0))
    targets = (0.0011, 0.0057, 0.0135)
    computed = [fn.spread_for(vol / mean) for vol, mean in inputs]
    ok = all(abs(c - t) <= 1e-4 for c, t in zip(computed, targets))
    report(3, ok, f"spreads = {[f'{c:.4%}' for c in computed]} vs {[f'{t:.2%}' for t in targets]} (+/-0.01pp)")


def test_criterion_04_replay_cur_report(tmp_path):
    config = sample_config("run_value_replay.json", tmp_path)
    assert main(["value", "--config", str(config)]) == 0
    with (tmp_path / "out" / "risk_report.csv").open(newline="") as fh:
        rows = {r["portfolio"]: r for r in csv.DictReader(fh)}
    curs = [float(rows[f"portfolio_{i}"]["cur"]) for i in (1, 2, 3)]
    targets = (3_482.0, 1_409.0, 45_600.0)
    ok = all(abs(c - t) <= 1.0 for c, t in zip(curs, targets))
    ok = ok and sum(round(c) for c in curs) == 50_491
    total_pvfp = float(rows["TOTAL"]["pvfp_tsr"])
    ok = ok and total_pvfp == sum(round(float(rows[f"portfolio_{i}"]["pvfp_tsr"])) for i in (1, 2, 3))
    ok = ok and total_pvfp == 2_058_828.0
    report(4, ok, f"CUR = {[round(c, 1) for c in curs]}, totals {total_pvfp:.0f} / {sum(round(c) for c in curs)}")


def test_criterion_05_cap_aggregate_identities():
    valuation = CapValuation(
        FIGURE_CAPLET_COSTS,
        deterministic_value=-5_268.03,
        booked_flows_pv=FIGURE_BOOKED_FLOWS_PV,
        tax_rate=FIGURE_TAX_RATE,
    )
    # the identity lands exactly 0.01 from the displayed spread, so the
    # +/-0.01 band is checked inclusively (with a float-safety epsilon)
    checks = (
        abs(valuation.stochastic_value - (-6_671.48)) <= 0.01 + 1e-9,
        abs(valuation.valuation_spread - (-1_403.44)) <= 0.01 + 1e-9,
        abs(valuation.crd - (-4_142.12)) <= 0.01 + 1e-9,
    )
    report(
        5,
        all(checks),
        f"stochastic {valuation.stochastic_value:.2f}, spread {valuation.valuation_spread:.2f}, "
        f"crd {valuation.crd:.2f}",
    )


def test_criterion_06_black_vs_monte_carlo():
    rng = np.random.default_rng(20260810)
    start = time.perf_counter()
    worst = 0.0
    for trial in range(20):
        notional = rng.uniform(1e4, 1e7)
        df_pay = rng.uniform(0.6, 1.0)
        fwd = rng.uniform(0.005, 0.08)
        strike = fwd * rng.uniform(0.5, 1.8)
        vol = rng.uniform(0.05, 0.5)
        t_fix = rng.uniform(0.25, 15.0)
        accrual = rng.uniform(0.25, 2.0)
        closed = caplet_price(notional, df_pay, fwd, strike, vol, t_fix, accrual)
        mc, se = monte_carlo_caplet(
            notional, df_pay, fwd, strike, vol, t_fix, accrual, 10**6, seed=1000 + trial
        )
        worst = max(worst, abs(closed - mc) / se)
    elapsed = time.perf_counter() - start
    ok = worst < 3.0 and elapsed < 30.0
    report(6, ok, f"20 caplets x 1e6 draws, worst |closed-MC| = {worst:.2f} SE (<3), {elapsed:.1f}s (<30s)")


def test_criterion_07_property_suites():
    rng = np.random.default_rng(42)
    fwd = rng.uniform(0.005, 0.10, 1000)
    strike = rng.uniform(0.005, 0.10, 1000)
    vol = rng.uniform(0.01, 0.8, 1000)
    t_fix = rng.uniform(0.1, 20.0, 1000)
    bump = rng.uniform(1e-4, 0.05, 1000)

    # monotone up to float rounding: deep in the money the vega is below
    # double precision and the sign of a 1e-17 difference is noise
    tol = 1e-12
    mono_ok = True
    intrinsic_ok = True
    for f, e, v, t, h in zip(fwd, strike, vol, t_fix, bump):
        base = caplet_price(1.0, 0.9, f, e, v, t)
        mono_ok &= caplet_price(1.0, 0.9, f, e, v + h, t) >= base - tol
        mono_ok &= caplet_price(1.0, 0.9, f + h, e, v, t) >= base - tol
        mono_ok &= caplet_price(1.0, 0.9, f, e + h, v, t) <= base + tol
        intrinsic_ok &= base >= 0.9 * max(f - e, 0.0) - tol

    grid = np.linspace(1e-7, 1.0 - 1e-7, 10_000)
    round_trip = max(abs(norm_cdf(x) - u) for x, u in zip(scipy.stats.norm.ppf(grid), grid))

    params_err = 0.0
    for mean in (0.2, 0.5, 0.8, 0.95, 1.3):
        for cv in (0.0, 0.05, 0.19, 0.5, 1.0):
            sigma = lognormal_sigma(cv)
            implied_mean = math.exp(lognormal_mu(mean, sigma) + 0.5 * sigma * sigma)
            params_err = max(params_err, abs(implied_mean - mean), abs(math.sqrt(math.expm1(sigma * sigma)) - cv))

    ok = mono_ok and intrinsic_ok and round_trip < 1e-9 and params_err < 1e-12
    report(
        7,
        ok,
        f"monotone {mono_ok}, intrinsic bound {intrinsic_ok}, cdf/quantile round-trip "
        f"{round_trip:.2e} (<1e-9), param round-trip {params_err:.2e} (<1e-12)",
    )


def test_criterion_08_mean_reversion_half_life():
    path = reverting_paths(np.array([1.0]), [0.80] * 12, nu=0.8)[0][0]
    ratio_t4 = (path[3] - 0.80) / (path[0] - 0.80)
    half_life_ok = abs(ratio_t4 - 0.512) < 1e-12

    portfolio = make_portfolio(mean_sp=0.80, sigma=0.25, horizon=12, nu=0.8)
    z = standard_normals(100_000, seed=91)
    paths, _ = portfolio.paths(z)
    se = paths.std(axis=0, ddof=1) / math.sqrt(paths.shape[0])
    deviation = np.abs(paths.mean(axis=0) - np.asarray(portfolio.chronicle))
    centering_ok = bool(np.all(deviation <= 3.0 * se))
    report(
        8,
        half_life_ok and centering_ok,
        f"gap ratio at t=4 = {ratio_t4!r} (0.512), max |mean - chronicle| / SE = "
        f"{np.max(deviation / se):.2f} (<3) over 1e5 paths",
    )


def test_criterion_09_byte_identical_across_workers(tmp_path, monkeypatch, forks):
    """Three portfolios give the same files on 1, 2 and 3 usable cores, all made in this process."""
    sample = Path(__file__).resolve().parents[1] / "sample_inputs"
    base = {
        "portfolios": [str(sample / f"portfolio_{k}.json") for k in (1, 2, 3)],
        "scenarios": 500,
        "seed": 13,
        "horizon": 10,
        "market": {"curve_csv": str(sample / "market_curve.csv"), "vols_csv": str(sample / "market_vols.csv")},
        "spread_points": [[0.10, 0.02], [0.20, 0.03]],
    }
    snapshots = []
    config = tmp_path / "run.json"
    config.write_text(json.dumps(base, indent=2), encoding="utf-8")
    for cores in (1, 2, 3):
        set_usable_cores(monkeypatch, cores)
        out = tmp_path / f"cores_{cores}"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        assert main(["value", "--config", str(config), "--out", str(out)]) == 0
        snapshots.append({f.name: f.read_bytes() for f in sorted(out.glob("*.csv"))})
    ok = snapshots[0] == snapshots[1] == snapshots[2] and forks == []
    names = sorted(snapshots[0])
    report(9, ok, f"{len(names)} files identical on 1/2/3 usable cores, {len(forks)} forks (incl. {names[-1]})")


def test_criterion_10_profit_sharing_asymmetry():
    results = [one_year_result(100.0, sp, 0.5) for sp in (0.5, 1.5)]
    expected_mean = sum(results) / 2.0
    at_mean_ratio = one_year_result(100.0, 1.0, 0.5)
    ok = expected_mean == pytest.approx(-12.5) and expected_mean < at_mean_ratio == 0.0
    report(
        10,
        ok,
        f"E[result] over {{0.5, 1.5}} = {expected_mean} < result at E[sp]=1 ({at_mean_ratio})",
    )
