"""Underwriting-risk cost from PVFP samples.

The investor's risk aversion is expressed as a discount spread that grows
with the relative volatility of the PVFP, through a concave log function
anchored at the origin (no risk, no spread). The cost of underwriting risk
scales the expected PVFP by the value lost when discounting at the spreaded
rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

_BISECTION_LO = 1e-9
_BISECTION_HI = 1e6
_RESIDUAL_TOL = 1e-10


class CalibrationError(ValueError):
    """Raised when a calibration root search cannot bracket or reach its target residual."""


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

    ``mean``/``vol`` are the sample statistics of the simulated (or
    replayed) PVFPs, ``spread`` the spread for their relative volatility,
    and ``pvfp_tsr``/``pvfp_spread`` the deterministic-scenario PVFPs at the
    risk-free rate and at the spreaded rate.
    """

    mean: float
    vol: float
    spread: float
    pvfp_tsr: float
    pvfp_spread: float

    def __post_init__(self) -> None:
        for name in ("mean", "vol", "spread", "pvfp_tsr", "pvfp_spread"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.mean <= 0.0:
            raise ValueError(f"mean PVFP must be > 0 to define a relative volatility, got {self.mean}")
        if self.vol < 0.0:
            raise ValueError(f"volatility must be >= 0, got {self.vol}")
        if self.pvfp_tsr == 0.0:  # checked here, not in ``cur``, so that a degenerate row stops the run at once
            raise ValueError("portfolio is degenerate: PVFP at the risk-free rate is 0")

    @property
    def cur(self) -> float:
        """Cost of underwriting risk.

        pvfp_tsr - mean * (pvfp_spread / pvfp_tsr): the spread-discounted
        to risk-free ratio of the deterministic scenario is applied to the
        expectation, and the shortfall against the deterministic PVFP is the
        cost. Positive values are destroyed value.
        """
        return self.pvfp_tsr - self.mean * (self.pvfp_spread / self.pvfp_tsr)


def pvfp_stats(samples: Sequence[float] | np.ndarray) -> tuple[float, float]:
    """Arithmetic mean and sample standard deviation (n - 1) of PVFP values."""
    values = np.asarray(samples, dtype=float)
    if values.size < 2:
        raise ValueError(f"need at least 2 samples, got {values.size}")
    return float(np.mean(values)), float(np.std(values, ddof=1))


def calibrate_spread(points: Sequence[tuple[float, float]]) -> SpreadFunction:
    """Fit a * ln(b * vol + 1) through two (rel_vol, spread) points and the origin.

    The points must be two, with positive coordinates, and distinct in both
    coordinates: a log curve through the origin cannot pass through two
    points sharing either one. b is found by bisection on the residual
    s2 * ln(b*v1 + 1) - s1 * ln(b*v2 + 1), then a follows from the first point.
    """
    if len(points) != 2:
        raise ValueError(f"exactly two calibration points are required, got {len(points)}")
    pair = [(float(v), float(s)) for v, s in points]
    (v1, s1), (v2, s2) = sorted(pair)
    if min(v1, s1, v2, s2) <= 0.0:
        raise ValueError(f"calibration points must have positive coordinates, got {pair}")
    if v1 == v2 or s1 == s2:
        raise ValueError(f"calibration points must be distinct in both coordinates, got {pair}")

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


def aggregate(reports: Sequence[PvfpStatistics]) -> tuple[float, float]:
    """Totals across portfolios: (sum of PVFP at TSR, sum of CUR)."""
    if not reports:
        raise ValueError("need at least one portfolio report")
    return sum(r.pvfp_tsr for r in reports), sum(r.cur for r in reports)
