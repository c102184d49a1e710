"""Underwriting-risk cost from PVFP samples.

The investor's risk aversion is expressed as a discount spread that grows
with the relative volatility of the PVFP, through a concave log function
anchored at the origin (no risk, no spread). The cost of underwriting risk
scales the expected PVFP by the value lost when discounting at the spreaded
rate.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import CalibrationError

_BISECTION_LO = 1e-9
_BISECTION_HI = 1e6
_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class SpreadFunction:
    """Risk-aversion spread a * ln(b * vol + 1).

    The +1 constant pins the curve to the origin: a riskless portfolio earns
    no spread.
    """

    a: float
    b: float

    def __post_init__(self) -> None:
        if self.a <= 0.0:
            raise ValueError(f"a must be > 0, got {self.a}")
        if self.b <= 0.0:
            raise ValueError(f"b must be > 0, got {self.b}")

    def spread_for(self, rel_vol: float) -> float:
        """Spread for a relative PVFP volatility (Vol[PVFP] / E[PVFP])."""
        if rel_vol < 0.0:
            raise ValueError(f"relative volatility must be >= 0, got {rel_vol}")
        return self.a * math.log(self.b * rel_vol + 1.0)


@dataclass(frozen=True)
class PvfpStatistics:
    """Per-portfolio risk report row.

    ``mean``/``vol`` are the sample statistics of the simulated PVFPs,
    ``pvfp_tsr``/``pvfp_spread`` the deterministic-scenario PVFPs at the
    risk-free rate and at the spreaded rate, and ``cur`` the cost of
    underwriting risk.
    """

    mean: float
    vol: float
    rel_vol: float
    spread: float
    pvfp_tsr: float
    pvfp_spread: float
    cur: float

    def __post_init__(self) -> None:
        if self.vol < 0.0:
            raise ValueError(f"volatility must be >= 0, got {self.vol}")


def pvfp_stats(samples: Iterable[float]) -> tuple[float, float]:
    """Arithmetic mean and sample standard deviation (n - 1) of PVFP values."""
    values = [float(v) for v in samples]
    if len(values) < 2:
        raise ValueError(f"need at least 2 samples, got {len(values)}")
    return statistics.fmean(values), statistics.stdev(values)


def calibrate_spread(points: Sequence[tuple[float, float]]) -> SpreadFunction:
    """Fit a * ln(b * vol + 1) through two (rel_vol, spread) points and the origin.

    b is found by bisection on the residual s2 * ln(b*v1 + 1) -
    s1 * ln(b*v2 + 1), then a follows from the first point.
    """
    if len(points) != 2:
        raise ValueError(f"exactly two calibration points are required, got {len(points)}")
    (v1, s1), (v2, s2) = (map(float, p) for p in points)
    if min(v1, s1, v2, s2) <= 0.0:
        raise ValueError("calibration points must have positive coordinates")
    if v1 == v2 or s1 == s2:
        raise ValueError("calibration points must be distinct in both coordinates")
    if v1 > v2:
        (v1, s1), (v2, s2) = (v2, s2), (v1, s1)

    def residual(b: float) -> float:
        return s2 * math.log1p(b * v1) - s1 * math.log1p(b * v2)

    lo, hi = _BISECTION_LO, _BISECTION_HI
    f_lo, f_hi = residual(lo), residual(hi)
    if f_lo == 0.0:
        b = lo
    elif f_hi == 0.0:
        b = hi
    elif f_lo * f_hi > 0.0:
        raise CalibrationError(
            "no spread curvature fits the points: the residual does not change sign on "
            f"[{_BISECTION_LO:g}, {_BISECTION_HI:g}] "
            f"(f(lo)={f_lo:.3e}, f(hi)={f_hi:.3e}); proportional points have no log fit"
        )
    else:
        while True:
            b = 0.5 * (lo + hi)
            if b == lo or b == hi:
                break
            f_mid = residual(b)
            if f_mid == 0.0:
                break
            if f_lo * f_mid < 0.0:
                hi = b
            else:
                lo, f_lo = b, f_mid

    if abs(residual(b)) > _RESIDUAL_TOL:
        raise CalibrationError(
            f"bisection converged to b={b:.6e} with residual {residual(b):.3e} "
            f"above the {_RESIDUAL_TOL:g} target"
        )
    return SpreadFunction(a=s1 / math.log1p(b * v1), b=b)


def underwriting_risk_cost(pvfp_tsr: float, mean_pvfp: float, pvfp_spread: float) -> float:
    """Cost of underwriting risk.

    pvfp_tsr - mean_pvfp * (pvfp_spread / pvfp_tsr): the spread-discounted
    to risk-free ratio of the deterministic scenario is applied to the
    expectation, and the shortfall against the deterministic PVFP is the
    cost. Positive values are destroyed value.
    """
    if pvfp_tsr == 0.0:
        raise ValueError("portfolio is degenerate: PVFP at the risk-free rate is 0")
    return pvfp_tsr - mean_pvfp * (pvfp_spread / pvfp_tsr)


def risk_statistics(
    mean: float,
    vol: float,
    spread_fn: SpreadFunction,
    pvfp_tsr: float,
    pvfp_spread: float,
) -> PvfpStatistics:
    """Assemble the report row for one portfolio.

    The spread recorded alongside is re-derived from the relative
    volatility, so replayed and simulated rows go through the same spread
    function.
    """
    if mean <= 0.0:
        raise ValueError(f"mean PVFP must be > 0 to define a relative volatility, got {mean}")
    rel_vol = vol / mean
    return PvfpStatistics(
        mean=mean,
        vol=vol,
        rel_vol=rel_vol,
        spread=spread_fn.spread_for(rel_vol),
        pvfp_tsr=pvfp_tsr,
        pvfp_spread=pvfp_spread,
        cur=underwriting_risk_cost(pvfp_tsr, mean, pvfp_spread),
    )


def aggregate(reports: Sequence[PvfpStatistics]) -> tuple[float, float]:
    """Totals across portfolios: (sum of PVFP at TSR, sum of CUR)."""
    if not reports:
        raise ValueError("need at least one portfolio report")
    return sum(r.pvfp_tsr for r in reports), sum(r.cur for r in reports)
