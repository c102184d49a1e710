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
from .loss import (
    DEFAULT_REVERSION_SPEED,
    LossScenarioSet,
    RiskCriteria,
)


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
                f"mean remaining term must be > 0 months, got {self.mean_remaining_term_months}"
            )


@dataclass(frozen=True)
class PortfolioSpec:
    """Aggregate description of one protection portfolio.

    ``mean_sp`` is the retained (expected) year-1 loss ratio driving the
    stochastic draws; ``chronicle`` the deterministic expected path it
    reverts to. ``sigma`` takes precedence over ``criteria`` when both are
    present. ``accounting_loss_ratio``, ``actuarial_age`` and
    ``risk_anticipation`` are descriptive only and never enter the
    projection.
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
    actuarial_age: float | None = None
    accounting_loss_ratio: float | None = None
    risk_anticipation: bool | None = None

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
    years = np.arange(1, horizon + 1, dtype=float)
    rates = np.interp(years, curve.tenors, curve.zero_rates)
    return (1.0 + rates + extra_spread) ** -years


def _pvfp_rows(
    spec: PortfolioSpec,
    paths: np.ndarray,
    curve: ZeroCurve,
    extra_spread: float,
) -> np.ndarray:
    """PVFP of each row of a (scenarios, horizon) loss-ratio matrix.

    Positive yearly results (S/P < 1) are shared at the contractual rate;
    losses are borne in full, so the result is continuous at S/P = 1 but
    kinked there. Results are then taxed and discounted at the zero rate
    shifted additively by ``extra_spread``.
    """
    if np.any(paths < 0.0):
        raise ValueError("loss ratios must be >= 0")
    if extra_spread < 0.0:
        raise ValueError(f"extra spread must be >= 0, got {extra_spread}")
    results = premium_runoff(spec) * (1.0 - paths)
    results = np.where(paths < 1.0, results * (1.0 - spec.profit_share_rate), results)
    discounts = _spread_discounts(curve, spec.horizon, extra_spread)
    return np.sum(results * (1.0 - spec.tax_rate) * discounts, axis=1)


def pvfp(
    spec: PortfolioSpec,
    sp_path: Sequence[float] | np.ndarray,
    curve: ZeroCurve,
    extra_spread: float = 0.0,
) -> float:
    """Present value of future profits along one loss-ratio path.

    Zero spread prices at the risk-free rate.
    """
    path = np.asarray(sp_path, dtype=float)
    if path.shape != (spec.horizon,):
        raise ValueError(
            f"loss-ratio path has length {path.size}, portfolio horizon is {spec.horizon}"
        )
    return float(_pvfp_rows(spec, path[np.newaxis, :], curve, extra_spread)[0])


def pvfp_batch(
    spec: PortfolioSpec,
    scenarios: LossScenarioSet,
    curve: ZeroCurve,
    extra_spread: float = 0.0,
) -> np.ndarray:
    """PVFP of every scenario row, in scenario order."""
    if scenarios.horizon != spec.horizon:
        raise ValueError(
            f"scenario horizon {scenarios.horizon} differs from portfolio horizon {spec.horizon}"
        )
    return _pvfp_rows(spec, scenarios.scenarios, curve, extra_spread)
