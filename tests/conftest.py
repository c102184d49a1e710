"""Shared fixtures: the worked-example market data and small portfolio builders."""

from __future__ import annotations

import pytest

from protval.curves import VolTermStructure, ZeroCurve
from protval.projection import PortfolioSpec, TacitRenewal

# Zero curve and cap volatilities of the published remuneration example
# (annual grid, decimals).
FIGURE_TENORS = (0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
FIGURE_ZERO_RATES = (0.0238, 0.0268, 0.0279, 0.0291, 0.0295, 0.0303, 0.0311)
FIGURE_DISCOUNT_FACTORS = (
    1.0,
    0.973899494,
    0.946366958,
    0.917643843,
    0.890134519,
    0.861487903,
    0.832092274,
)
FIGURE_VOLS = (0.1660, 0.1660, 0.1700, 0.1690, 0.1660, 0.1610, 0.1555)
FIGURE_CAPLET_COSTS = (-153.48, -3175.22, -1981.13, -1019.51, -404.18, -91.44, 0.0)
FIGURE_DETERMINISTIC_COST = -5268.03
FIGURE_BOOKED_FLOWS_PV = -958.21
FIGURE_TAX_RATE = 0.275

# Published per-portfolio PVFP figures (mean, vol, pvfp_tsr, pvfp_tsr+spread)
# and the lognormal parameter pairs they go with.
TABLE_PVFP_ROWS = (
    (1_150_605.0, 3_691.0, 1_150_685.0, 1_147_283.0),
    (54_674.0, 1_074.0, 54_674.0, 53_265.0),
    (855_937.0, 48_523.0, 853_469.0, 805_540.0),
)
TABLE_MEAN_SIGMA = ((0.95, 0.19), (0.40, 0.21), (0.60, 0.26))
SPREAD_CALIBRATION_POINTS = ((0.10, 0.02), (0.20, 0.03))


@pytest.fixture
def figure_curve() -> ZeroCurve:
    return ZeroCurve(tenors=FIGURE_TENORS, zero_rates=FIGURE_ZERO_RATES)


@pytest.fixture
def figure_vols() -> VolTermStructure:
    return VolTermStructure(fixing_times=FIGURE_TENORS, black_vols=FIGURE_VOLS)


def make_portfolio(
    mean_sp: float = 0.80,
    sigma: float | None = 0.20,
    horizon: int = 10,
    premium: float = 100.0,
    profit_share: float = 0.5,
    tax: float = 0.0,
    lapse: float = 0.0,
    nu: float = 0.8,
    chronicle: tuple[float, ...] | None = None,
    **kwargs,
) -> PortfolioSpec:
    return PortfolioSpec(
        id=kwargs.pop("id", "test"),
        initial_premium=premium,
        chronicle=chronicle if chronicle is not None else (mean_sp,) * horizon,
        renewal=TacitRenewal(lapse_rate=lapse),
        profit_share_rate=profit_share,
        tax_rate=tax,
        mean_sp=mean_sp,
        sigma=sigma,
        reversion_speed=nu,
        **kwargs,
    )
