"""Aggregate P&L projection and present value of future profits.

The projected account is the underwriting result only: premiums minus
claims, a contractual share of positive results paid away to the
distributor, then tax. Losses are never shared, which makes the insurer's
result asymmetric around the breakeven loss ratio; that asymmetry is the
reason the expected PVFP sits below the PVFP of the expected path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .loss import DEFAULT_REVERSION_SPEED, draw_initial_ratios, lognormal_mu, reverting_paths


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
    stochastic draws, ``sigma`` the sigma of their lognormal law and
    ``chronicle`` the deterministic expected path they revert to. The law's
    ``mu`` and the ``premium_runoff`` vector ``premiums`` are derived once, here.
    """

    id: str
    initial_premium: float
    chronicle: tuple[float, ...]
    renewal: TacitRenewal | FixedTerm
    profit_share_rate: float
    tax_rate: float
    mean_sp: float
    sigma: float
    reversion_speed: float = DEFAULT_REVERSION_SPEED
    mu: float = field(init=False)
    premiums: tuple[float, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "chronicle", tuple(float(v) for v in self.chronicle))
        if self.initial_premium < 0.0:
            raise ValueError(f"initial premium must be >= 0, got {self.initial_premium}")
        if not 0.0 <= self.profit_share_rate <= 1.0:
            raise ValueError(f"profit share rate must be in [0, 1], got {self.profit_share_rate}")
        if not 0.0 <= self.tax_rate < 1.0:
            raise ValueError(f"tax rate must be in [0, 1), got {self.tax_rate}")
        object.__setattr__(self, "mu", lognormal_mu(self.mean_sp, self.sigma))  # checks the law
        if not self.chronicle:
            raise ValueError("chronicle must not be empty")
        if any(v <= 0.0 for v in self.chronicle):
            raise ValueError("chronicle values must be > 0")
        if not 0.0 < self.reversion_speed <= 1.0:
            raise ValueError(f"reversion speed must be in (0, 1], got {self.reversion_speed}")
        object.__setattr__(self, "premiums", tuple(premium_runoff(self).tolist()))

    @property
    def horizon(self) -> int:
        return len(self.chronicle)

    def paths(self, z: np.ndarray) -> tuple[np.ndarray, int]:
        """``reverting_paths`` from the year-1 ratios of the standard normals ``z``: (paths, floored count)."""
        return reverting_paths(draw_initial_ratios(self.mu, self.sigma, z), self.chronicle, self.reversion_speed)


def premium_runoff(spec: PortfolioSpec) -> np.ndarray:
    """Projected premium vector P(t), t = 1..horizon, with no new business.

    Tacit renewal decays geometrically with the lapse rate; fixed-term
    portfolios amortize linearly to zero over the mean remaining term
    rounded up to whole years. A spec holds it as ``premiums``.
    """
    t = np.arange(spec.horizon)
    if isinstance(spec.renewal, TacitRenewal):
        return spec.initial_premium * (1.0 - spec.renewal.lapse_rate) ** t
    years = math.ceil(spec.renewal.mean_remaining_term_months / 12.0)
    return spec.initial_premium * np.maximum(1.0 - t / years, 0.0)


def pvfp_rows(spec: PortfolioSpec, paths: np.ndarray, discounts: np.ndarray) -> np.ndarray:
    """PVFP of each row of a (rows, horizon) loss-ratio matrix such as ``spec.paths(z)[0]``, which is overwritten.

    Positive yearly results (S/P < 1) are shared at the contractual rate;
    losses are borne in full, so the result is continuous at S/P = 1 but
    kinked there. Results are then taxed and discounted. The terms are built
    in place in ``paths``, and each row is summed on its own, so a row's
    PVFP does not depend on the rows around it.
    """
    results = np.subtract(1.0, paths, out=paths)
    # For any float S/P, 1 - S/P > 0 exactly when S/P < 1: a difference of
    # two distinct floats is never rounded to 0.
    below = results > 0.0
    results *= spec.premiums
    np.multiply(results, 1.0 - spec.profit_share_rate, out=results, where=below)
    results *= 1.0 - spec.tax_rate
    results *= discounts
    return results.sum(axis=1)


def pvfp_of_chronicle(spec: PortfolioSpec, discounts: np.ndarray) -> np.ndarray:
    """PVFP of the chronicle under each row of the (rows, horizon) matrix ``discounts``, in one call.

    The chronicle is the reverting path from its own first year, so this is
    ``pvfp_rows`` of that path, bit for bit.
    """
    return pvfp_rows(spec, np.array((spec.chronicle,) * len(discounts)), discounts)
