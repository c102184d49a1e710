"""Output checks for the benchmark's jobs.

Two kinds of check, so that the checks survive a deliberate re-keying of
the engine's random draws:

* Pins: outputs that do not depend on the draws must equal, byte for byte
  (compared by SHA-256), what this module renders from the generated
  inputs. They are ``lognormal_params.csv``, ``cap_report.csv``, the replay
  ``risk_report.csv``, ``spread_function.json`` (a constant, since the
  calibration points are fixed) and the ``pvfp_tsr``/``pvfp_tsr_spread``
  columns. The PVFP columns are rendered with numpy float64 element-wise
  operations in the engine's formula order: numpy's vectorised ``pow``
  differs from libm's in the last bit on AVX-512 machines, so a
  plain-Python value cannot pin them.
* Identities: outputs that depend on the draws are checked by counts and
  by relations that any correct run satisfies.

``check_job`` returns a list of failure messages; empty means the job's
outputs are correct.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import statistics
from pathlib import Path
from typing import Any, Callable

import numpy as np

from workloads import RATING_CRITERIA, Job, Workload

SPREAD_A = 0.02078086921235028
SPREAD_B = 16.180339887498942
SPREAD_JSON_SHA256 = "a787ec8dc40eaabea28b1f08bbd132ba27d62528d9f9868392afaa2de6245a9b"
FAN_PROBS = (0.01, 0.25, 0.50, 0.75, 0.99)
REL_TOL = 1e-12
HISTOGRAM_BIN = 0.10


class Failures(list):
    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.append(message)

    def close(self, actual: float, expected: float, what: str, rel: float = REL_TOL, scale: float | None = None) -> None:
        tol = rel * abs(expected if scale is None else scale)
        self.expect(abs(actual - expected) <= tol, f"{what}: {actual!r} != {expected!r}")

    def pin(self, actual: bytes, expected: bytes, what: str) -> None:
        a, e = hashlib.sha256(actual).hexdigest(), hashlib.sha256(expected).hexdigest()
        self.expect(a == e, f"{what}: sha256 {a[:12]} != pinned {e[:12]}")


def _render(rows: list[list[str]]) -> bytes:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue().encode("utf-8")


def _read_rows(path: Path) -> list[list[str]]:
    with path.open(newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


def _interp(x: float, xs: list[float], ys: list[float]) -> float:
    """Linear interpolation, flat outside the nodes."""
    if x <= xs[0]:
        return ys[0]
    for (x0, y0), (x1, y1) in zip(zip(xs, ys), zip(xs[1:], ys[1:])):
        if x <= x1:
            return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    return ys[-1]


class Curve:
    """The generated zero curve, with the engine's interpolation rule."""

    def __init__(self, nodes: list[tuple[float, float]]) -> None:
        self.tenors = [float(t) for t, _ in nodes]
        self.rates = [float(z) for _, z in nodes]

    def zero(self, t: float) -> float:
        return float(np.interp(t, self.tenors, self.rates))

    def df(self, t: float) -> float:
        return 1.0 if t == 0.0 else (1.0 + self.zero(t)) ** -t

    def forward(self, fix: float, tenor: float) -> float:
        return (self.df(fix) / self.df(fix + tenor)) ** (1.0 / tenor) - 1.0


def _premium(p: dict[str, Any], t: int) -> float:
    renewal = p["renewal"]
    if renewal["mode"] == "tacit_renewal":
        return p["initial_premium"] * (1.0 - renewal["lapse_rate"]) ** t
    years = math.ceil(renewal["mean_remaining_term_months"] / 12.0)
    return p["initial_premium"] * max(1.0 - t / years, 0.0)


def pvfp_numpy(p: dict[str, Any], path: list[float], curve: Curve, spread: float) -> float:
    """PVFP in float64 array arithmetic, in the engine's operation order (the pin)."""
    t = np.arange(len(path))
    renewal = p["renewal"]
    if renewal["mode"] == "tacit_renewal":
        premiums = p["initial_premium"] * (1.0 - renewal["lapse_rate"]) ** t
    else:
        years = math.ceil(renewal["mean_remaining_term_months"] / 12.0)
        premiums = p["initial_premium"] * np.maximum(1.0 - t / years, 0.0)
    sp = np.asarray(path, dtype=float)
    results = premiums * (1.0 - sp)
    results = np.where(sp < 1.0, results * (1.0 - p["profit_share_rate"]), results)
    years_f = np.arange(1, len(path) + 1, dtype=float)
    discounts = (1.0 + np.interp(years_f, curve.tenors, curve.rates) + spread) ** -years_f
    return float(np.sum(results * (1.0 - p["tax_rate"]) * discounts))


def pvfp_plain(p: dict[str, Any], path: list[float], curve: Curve, spread: float) -> float:
    """PVFP from the paper's formula in plain Python (the identity)."""
    terms = []
    for t, sp in enumerate(path):
        result = _premium(p, t) * (1.0 - sp)
        if sp < 1.0:
            result *= 1.0 - p["profit_share_rate"]
        rate = _interp(t + 1.0, curve.tenors, curve.rates)
        terms.append(result * (1.0 - p["tax_rate"]) * (1.0 + rate + spread) ** -(t + 1.0))
    return math.fsum(terms)


def _lognormal(p: dict[str, Any], weights: dict[str, Any]) -> tuple[float, float]:
    mean = float(p["retained_loss_ratio"])
    if p.get("sigma") is not None:
        sigma = float(p["sigma"])
    else:
        age = p["criteria"]["portfolio_age_years"]
        bucket = "lt_1y" if age < 1.0 else "lt_4y" if age < 4.0 else "ge_4y"
        vol = float(weights["portfolio_age"][bucket])
        for name in RATING_CRITERIA:
            vol *= float(weights[name][p["criteria"][name]])
        sigma = math.sqrt(math.log1p(vol * vol))
    return math.log(mean) - 0.5 * sigma * sigma, sigma


def _spread(mean: float, vol: float) -> float:
    return SPREAD_A * math.log(SPREAD_B * (vol / mean) + 1.0)


def _check_files(job: Job, expected: set[str], f: Failures) -> None:
    found = {p.name for p in job.out_dir.iterdir()} if job.out_dir.is_dir() else set()
    f.expect(found == expected, f"files: missing {sorted(expected - found)}, unexpected {sorted(found - expected)}")


def _check_manifest(job: Job, command: str, f: Failures) -> None:
    data = json.loads((job.out_dir / f"{command}_manifest.json").read_text(encoding="utf-8"))
    config_path = Path(data["config_path"])
    f.expect(data["command"] == command, f"manifest command {data['command']!r}")
    f.expect(data["config_sha256"] == hashlib.sha256(config_path.read_bytes()).hexdigest(),
             "manifest config_sha256 does not hash the config")
    for key in ("seed", "scenarios", "horizon"):
        if key in job.config:
            f.expect(data[key] == job.config[key], f"manifest {key} {data[key]!r} != {job.config[key]!r}")
    f.expect(isinstance(data.get("engine_version"), str), "manifest lacks engine_version")


def _check_value(job: Job, wl: Workload, f: Failures) -> None:
    ids = [p["id"] for p in job.portfolios]
    _check_files(job, {f"{i}_pvfp_samples.csv" for i in ids}
                 | {"lognormal_params.csv", "risk_report.csv", "value_manifest.json"}, f)
    _check_manifest(job, "value", f)
    n = job.config["scenarios"]
    curve = Curve(wl.market["curve"])

    echo = [["portfolio", "mean_sp", "mu", "sigma"]]
    for p in job.portfolios:
        mu, sigma = _lognormal(p, wl.weights)
        echo.append([p["id"], repr(float(p["retained_loss_ratio"])), repr(mu), repr(sigma)])
    f.pin((job.out_dir / "lognormal_params.csv").read_bytes(), _render(echo), "lognormal_params.csv")

    report = _read_rows(job.out_dir / "risk_report.csv")
    f.expect(report[0] == ["portfolio", "mean_pvfp", "vol_pvfp", "spread", "pvfp_tsr_spread", "pvfp_tsr", "cur"],
             "risk_report.csv header")
    f.expect([r[0] for r in report[1:]] == ids + ["TOTAL"], "risk_report.csv rows")
    tsr_actual, tsr_pinned, spr_actual, spr_pinned, tsrs, curs = [], [], [], [], [], []
    for p, row in zip(job.portfolios, report[1:]):
        pid = p["id"]
        mean, vol, spread, spr, tsr, cur = (float(v) for v in row[1:])
        samples = _read_rows(job.out_dir / f"{pid}_pvfp_samples.csv")
        f.expect(samples[0] == ["scenario", "pvfp"] and len(samples) == n + 1
                 and all(len(r) == 2 for r in samples), f"{pid}_pvfp_samples.csv shape")
        f.expect([r[0] for r in samples[1:]] == [str(i) for i in range(n)], f"{pid} scenario index")
        values = [float(r[1]) for r in samples[1:]]
        f.close(mean, statistics.fmean(values), f"{pid} mean_pvfp vs samples")
        f.close(vol, statistics.stdev(values), f"{pid} vol_pvfp vs samples")
        f.close(spread, _spread(mean, vol), f"{pid} spread")
        f.close(cur, tsr - mean * (spr / tsr), f"{pid} CUR identity", scale=tsr)
        f.close(tsr, pvfp_plain(p, p["chronicle"], curve, 0.0), f"{pid} pvfp_tsr vs plain Python", rel=1e-9)
        tsr_actual.append(row[5])
        tsr_pinned.append(repr(pvfp_numpy(p, p["chronicle"], curve, 0.0)))
        spr_actual.append(row[4])
        spr_pinned.append(repr(pvfp_numpy(p, p["chronicle"], curve, spread)))
        tsrs.append(tsr)
        curs.append(cur)
    f.pin("\n".join(tsr_actual).encode(), "\n".join(tsr_pinned).encode(), "pvfp_tsr column")
    f.pin("\n".join(spr_actual).encode(), "\n".join(spr_pinned).encode(), "pvfp_tsr_spread column")
    total = report[-1]
    f.close(float(total[5]), sum(tsrs), "TOTAL pvfp_tsr")
    f.close(float(total[6]), sum(curs), "TOTAL cur", scale=sum(tsrs))


def _check_simulate(job: Job, wl: Workload, f: Failures) -> None:
    ids = [p["id"] for p in job.portfolios]
    _check_files(job, {f"{i}_{kind}.csv" for i in ids for kind in ("scenarios", "fan_chart", "histogram")}
                 | {"simulate_manifest.json"}, f)
    _check_manifest(job, "simulate", f)
    n = job.config["scenarios"]
    for p in job.portfolios:
        pid, chron = p["id"], np.array(p["chronicle"], dtype=float)
        h = chron.size
        path = job.out_dir / f"{pid}_scenarios.csv"
        with path.open(encoding="utf-8") as handle:
            header = handle.readline().rstrip("\n").split(",")
        f.expect(header == ["scenario"] + [f"year_{t}" for t in range(1, h + 1)], f"{pid} scenarios header")
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        f.expect(data.shape == (n, h + 1), f"{pid} scenarios shape {data.shape}")
        if data.shape != (n, h + 1):
            continue
        f.expect(np.array_equal(data[:, 0], np.arange(n)), f"{pid} scenario index")
        paths = data[:, 1:]
        sp1 = paths[:, 0]
        formula = chron + (sp1[:, None] - chron[0]) * p["reversion_speed"] ** np.arange(h)
        formula[:, 0] = sp1
        floored = formula < 0.0
        f.expect(bool(np.all(paths[floored] == 0.0)), f"{pid} zero floor")
        f.expect(bool(np.array_equal(paths[~floored], formula[~floored])),
                 f"{pid} rows break the reversion formula")
        se = float(np.std(sp1, ddof=1)) / math.sqrt(n)
        f.expect(abs(float(np.mean(sp1)) - p["retained_loss_ratio"]) <= 5.0 * se,
                 f"{pid} year-1 mean {np.mean(sp1)!r} is over 5 standard errors from {p['retained_loss_ratio']}")

        fan = _read_rows(job.out_dir / f"{pid}_fan_chart.csv")
        f.expect(fan[0] == ["year", "q01", "q25", "q50", "q75", "q99"] and len(fan) == h + 1, f"{pid} fan shape")
        q = np.array([[float(v) for v in r[1:]] for r in fan[1:]])
        f.expect(bool(np.all(np.diff(q, axis=1) >= 0.0)), f"{pid} fan quantiles decrease")
        f.expect(bool(np.array_equal(q, np.quantile(paths, FAN_PROBS, axis=0).T)),
                 f"{pid} fan quantiles do not match the scenarios")

        hist = _read_rows(job.out_dir / f"{pid}_histogram.csv")
        f.expect(hist[0] == ["bin_left", "bin_right", "count"], f"{pid} histogram header")
        f.expect(sum(int(r[2]) for r in hist[1:]) == n, f"{pid} histogram counts do not sum to {n}")
        f.expect(hist[1:] == _histogram_rows(sp1), f"{pid} histogram does not bin the year-1 ratios")


def _histogram_rows(values: np.ndarray) -> list[list[str]]:
    """Counts per bin [k*w, (k+1)*w) from 0 up to the highest occupied bin."""
    k = np.floor(values / HISTOGRAM_BIN + 1e-9).astype(int)
    lo = min(0, int(k.min()))
    counts = np.bincount(k - lo, minlength=int(k.max()) - lo + 1)
    return [[repr((lo + i) * HISTOGRAM_BIN), repr((lo + i) * HISTOGRAM_BIN + HISTOGRAM_BIN), str(int(c))]
            for i, c in enumerate(counts)]


def _check_cap(job: Job, wl: Workload, f: Failures) -> None:
    _check_files(job, {"cap_report.csv", "price-cap_manifest.json"}, f)
    _check_manifest(job, "price-cap", f)
    spec = job.extra["spec"]
    curve = Curve(wl.market["curve"])
    vol_t = [float(t) for t, _ in wl.market["vols"]]
    vol_v = [float(v) for _, v in wl.market["vols"]]
    spot = float(wl.market["spot_index_rate"])
    acc, tenor, strike = float(spec["accrual_years"]), float(spec["index_tenor_years"]), float(spec["strike"])
    notionals = [float(x) for x in spec["notionals"]]
    periods = range(len(notionals))

    def fixing(j: int) -> float:
        return max(j * acc - acc, 0.0)

    def forward(j: int) -> float:
        return spot if j == 0 and spec["use_spot_for_first_period"] else curve.forward(fixing(j), tenor)

    def black(notional: float, df: float, fwd: float, vol: float, t_fix: float) -> float:
        scale = notional * acc * df
        if vol == 0.0 or t_fix == 0.0:
            return scale * max(fwd - strike, 0.0)
        sd = vol * math.sqrt(t_fix)
        d = (math.log(fwd / strike) + 0.5 * vol * vol * t_fix) / sd
        cdf = lambda x: 0.5 * math.erfc(-x / math.sqrt(2.0))  # noqa: E731
        return scale * (fwd * cdf(d) - strike * cdf(d - sd))

    dfs = [curve.df(j * acc) for j in periods]
    fwds = [forward(j) for j in periods]
    vols = [float(np.interp(fixing(j), vol_t, vol_v)) for j in periods]
    costs = [-black(notionals[j], dfs[j], fwds[j], vols[j], fixing(j)) for j in periods]
    deterministic = -sum(black(notionals[j], dfs[j], fwds[j], 0.0, fixing(j)) for j in periods if j > 0)
    stochastic = sum(costs[1:])
    booked = float(spec["booked_flows_pv"])
    rows = [
        ["metric"] + [str(j) for j in periods],
        ["notional"] + [repr(v) for v in notionals],
        ["discount_factor"] + [repr(v) for v in dfs],
        ["forward_rate"] + [repr(v) for v in fwds],
        ["strike"] + [repr(strike)] * len(notionals),
        ["volatility"] + [repr(v) for v in vols],
        ["caplet_cost"] + [repr(v) for v in costs],
        ["stochastic_value", repr(stochastic)],
        ["deterministic_value", repr(deterministic)],
        ["valuation_spread", repr(stochastic - deterministic)],
        ["booked_flows_pv", repr(booked)],
        ["crd", repr((stochastic - booked) * (1.0 - job.config["market"]["tax_rate"]))],
    ]
    f.pin((job.out_dir / "cap_report.csv").read_bytes(), _render(rows), "cap_report.csv")


def _check_replay(job: Job, wl: Workload, f: Failures) -> None:
    _check_files(job, {"risk_report.csv", "value_manifest.json"}, f)
    _check_manifest(job, "value", f)
    rows = [["portfolio", "mean_pvfp", "vol_pvfp", "spread", "pvfp_tsr_spread", "pvfp_tsr", "cur"]]
    tsrs, curs = [], []
    for entry in job.extra["replay"]:
        mean, vol = float(entry["mean_pvfp"]), float(entry["vol_pvfp"])
        tsr, spr = float(entry["pvfp_tsr"]), float(entry["pvfp_tsr_spread"])
        cur = tsr - mean * (spr / tsr)
        rows.append([entry["id"], repr(mean), repr(vol), repr(_spread(mean, vol)), repr(spr), repr(tsr), repr(cur)])
        tsrs.append(tsr)
        curs.append(cur)
    rows.append(["TOTAL", "", "", "", "", repr(sum(tsrs)), repr(sum(curs))])
    f.pin((job.out_dir / "risk_report.csv").read_bytes(), _render(rows), "replay risk_report.csv")


def _check_calibrate(job: Job, wl: Workload, f: Failures) -> None:
    _check_files(job, {"spread_function.json", "calibrate-spread_manifest.json"}, f)
    _check_manifest(job, "calibrate-spread", f)
    actual = hashlib.sha256((job.out_dir / "spread_function.json").read_bytes()).hexdigest()
    f.expect(actual == SPREAD_JSON_SHA256, f"spread_function.json: sha256 {actual[:12]} != pinned")


_CHECKS: dict[str, Callable[[Job, Workload, Failures], None]] = {
    "value": _check_value,
    "simulate": _check_simulate,
    "price_cap": _check_cap,
    "replay": _check_replay,
    "calibrate": _check_calibrate,
}


def check_job(job: Job, wl: Workload) -> list[str]:
    """Failure messages for one job's output directory (empty when correct)."""
    failures = Failures()
    try:
        _CHECKS[job.kind](job, wl, failures)
    except (OSError, ValueError, KeyError, IndexError, json.JSONDecodeError) as exc:
        failures.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return [f"{job.name}: {m}" for m in failures]
