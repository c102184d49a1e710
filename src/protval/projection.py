"""Aggregate P&L projection and present value of future profits.

The projected account is the underwriting result only: premiums minus
claims, a contractual share of positive results paid away to the
distributor, then tax. Losses are never shared, which makes the insurer's
result asymmetric around the breakeven loss ratio; that asymmetry is the
reason the expected PVFP sits below the PVFP of the expected path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .curves import ZeroCurve
from .loss import DEFAULT_REVERSION_SPEED, RiskCriteria, _check_reversion_speed, reverting_paths

# Rows of loss-ratio paths that pvfp_of_ratios builds and values at a time.
# A block of 30-year paths is 240 KB, so its temporaries stay in cache; on
# a 2-vCPU x86 VM, 512 to 1024 rows valued 10,000 draws fastest.
_BLOCK_ROWS = 1024


@dataclass(frozen=True)
class TacitRenewal:
    """Tacitly renewing contracts: premiums decay geometrically with the lapse rate."""

    lapse_rate: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.lapse_rate < 1.0:
            raise ValueError(f"lapse rate must be in [0, 1), got {self.lapse_rate}")


@dataclass(frozen=True)
class FixedTerm:
    """Fixed-term contracts: premiums amortize linearly over the mean remaining term."""

    mean_remaining_term_months: float

    def __post_init__(self) -> None:
        if self.mean_remaining_term_months <= 0.0:
            raise ValueError(
                f"mean remaining term months must be > 0, got {self.mean_remaining_term_months}"
            )


@dataclass(frozen=True)
class PortfolioSpec:
    """Aggregate description of one protection portfolio.

    ``mean_sp`` is the retained (expected) year-1 loss ratio driving the
    stochastic draws; ``chronicle`` the deterministic expected path it
    reverts to. ``sigma`` takes precedence over ``criteria`` when both are
    present.
    """

    id: str
    initial_premium: float
    chronicle: tuple[float, ...]
    renewal: TacitRenewal | FixedTerm
    profit_share_rate: float
    tax_rate: float
    mean_sp: float
    sigma: float | None = None
    criteria: RiskCriteria | None = None
    reversion_speed: float = DEFAULT_REVERSION_SPEED

    def __post_init__(self) -> None:
        object.__setattr__(self, "chronicle", tuple(float(v) for v in self.chronicle))
        if self.initial_premium < 0.0:
            raise ValueError(f"initial premium must be >= 0, got {self.initial_premium}")
        if not 0.0 <= self.profit_share_rate <= 1.0:
            raise ValueError(f"profit share rate must be in [0, 1], got {self.profit_share_rate}")
        if not 0.0 <= self.tax_rate < 1.0:
            raise ValueError(f"tax rate must be in [0, 1), got {self.tax_rate}")
        if self.mean_sp <= 0.0:
            raise ValueError(f"retained loss ratio must be > 0, got {self.mean_sp}")
        if not self.chronicle:
            raise ValueError("chronicle must not be empty")
        if any(v <= 0.0 for v in self.chronicle):
            raise ValueError("chronicle values must be > 0")
        if self.sigma is not None and self.sigma < 0.0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")
        _check_reversion_speed(self.reversion_speed)

    @property
    def horizon(self) -> int:
        return len(self.chronicle)


def premium_runoff(spec: PortfolioSpec) -> np.ndarray:
    """Projected premium vector P(t), t = 1..horizon, with no new business.

    Tacit renewal decays geometrically with the lapse rate; fixed-term
    portfolios amortize linearly to zero over the mean remaining term
    rounded up to whole years.
    """
    t = np.arange(spec.horizon)
    if isinstance(spec.renewal, TacitRenewal):
        return spec.initial_premium * (1.0 - spec.renewal.lapse_rate) ** t
    years = math.ceil(spec.renewal.mean_remaining_term_months / 12.0)
    return spec.initial_premium * np.maximum(1.0 - t / years, 0.0)


def _spread_discounts(curve: ZeroCurve, horizon: int, extra_spread: float) -> np.ndarray:
    """Discount factors (1 + z(t) + spread)^-t for t = 1..horizon."""
    if extra_spread < 0.0:
        raise ValueError(f"extra spread must be >= 0, got {extra_spread}")
    years = np.arange(1, horizon + 1, dtype=float)
    rates = np.interp(years, curve.tenors, curve.zero_rates)
    return (1.0 + rates + extra_spread) ** -years


def _pvfp_rows(
    spec: PortfolioSpec,
    paths: np.ndarray,
    premiums: np.ndarray,
    discounts: np.ndarray,
    below: np.ndarray | None = None,
) -> np.ndarray:
    """PVFP of each row of a (rows, horizon) loss-ratio matrix; ``paths`` is overwritten.

    Positive yearly results (S/P < 1) are shared at the contractual rate;
    losses are borne in full, so the result is continuous at S/P = 1 but
    kinked there. Results are then taxed and discounted. The terms are built
    in place in ``paths``, and each row is summed on its own, so a row's
    PVFP does not depend on the rows around it. ``below``, a boolean array
    of the same shape, receives the S/P < 1 mask; without it one is
    allocated.
    """
    results = np.subtract(1.0, paths, out=paths)
    # For any float S/P, 1 - S/P > 0 exactly when S/P < 1: a difference of
    # two distinct floats is never rounded to 0.
    below = np.greater(results, 0.0, out=below)
    results *= premiums
    np.multiply(results, 1.0 - spec.profit_share_rate, out=results, where=below)
    results *= 1.0 - spec.tax_rate
    results *= discounts
    return results.sum(axis=1)


def pvfp(
    spec: PortfolioSpec,
    sp_path: Sequence[float] | np.ndarray,
    curve: ZeroCurve,
    extra_spread: float = 0.0,
) -> float:
    """Present value of future profits along one loss-ratio path.

    Zero spread prices at the risk-free rate.
    """
    path = np.array(sp_path, dtype=float)
    if path.shape != (spec.horizon,):
        raise ValueError(
            f"loss-ratio path has length {path.size}, portfolio horizon is {spec.horizon}"
        )
    if np.any(path < 0.0):
        raise ValueError("loss ratios must be >= 0")
    discounts = _spread_discounts(curve, spec.horizon, extra_spread)
    return float(_pvfp_rows(spec, path[np.newaxis, :], premium_runoff(spec), discounts)[0])


def pvfp_of_ratios(spec: PortfolioSpec, sp1: np.ndarray, curve: ZeroCurve) -> np.ndarray:
    """PVFP at the risk-free rate of the reverting path from each year-1 loss ratio, in order.

    The paths are built by ``reverting_paths`` and valued ``_BLOCK_ROWS``
    rows at a time in one reused block buffer, so no (scenarios x years)
    matrix is ever allocated; a row's PVFP does not depend on the block it
    falls in.
    """
    chron = np.asarray(spec.chronicle)
    premiums = premium_runoff(spec)
    discounts = _spread_discounts(curve, spec.horizon, 0.0)
    buf = np.empty((min(len(sp1), _BLOCK_ROWS), spec.horizon))
    below = np.empty(buf.shape, dtype=bool)
    samples = np.empty(len(sp1))
    for start in range(0, len(sp1), _BLOCK_ROWS):
        block = sp1[start:start + _BLOCK_ROWS]
        rows = len(block)
        paths, _ = reverting_paths(block, chron, spec.reversion_speed, out=buf[:rows])
        samples[start:start + rows] = _pvfp_rows(spec, paths, premiums, discounts, below[:rows])
    return samples
