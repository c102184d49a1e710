"""Deterministic valuation engine for individual-protection portfolios in aggregate data.

Two risk measures are produced:

* the market-risk cost of a distributor remuneration scheme, priced as a
  strip of Black-76 caplets with time-varying notionals, and
* the life-underwriting risk cost, from lognormal loss-ratio scenarios,
  PVFP projection and a risk-aversion spread.
"""

__version__ = "0.1.0"

from .cap import CapSpec, CapValuation, caplet_price, norm_cdf, price_cap, remuneration_option_cost
from .curves import MarketData, VolTermStructure, ZeroCurve
from .errors import CalibrationError, ConfigError
from .loss import (
    LognormalParams,
    LossScenarioSet,
    RiskCriteria,
    WeightMatrix,
    draw_initial_ratios,
    generate_scenarios,
    histogram,
    lognormal_params,
    lognormal_params_from_sigma,
    mean_reversion_path,
    norm_inv,
    volatility_score,
)
from .projection import (
    FixedTerm,
    PortfolioSpec,
    TacitRenewal,
    premium_runoff,
    pvfp,
    pvfp_batch,
)
from .risk import (
    PvfpStatistics,
    SpreadFunction,
    aggregate,
    calibrate_spread,
    pvfp_stats,
    risk_statistics,
    underwriting_risk_cost,
)

__all__ = [
    "CalibrationError",
    "CapSpec",
    "CapValuation",
    "ConfigError",
    "FixedTerm",
    "LognormalParams",
    "LossScenarioSet",
    "MarketData",
    "PortfolioSpec",
    "PvfpStatistics",
    "RiskCriteria",
    "SpreadFunction",
    "TacitRenewal",
    "VolTermStructure",
    "WeightMatrix",
    "ZeroCurve",
    "aggregate",
    "calibrate_spread",
    "caplet_price",
    "draw_initial_ratios",
    "generate_scenarios",
    "histogram",
    "lognormal_params",
    "lognormal_params_from_sigma",
    "mean_reversion_path",
    "norm_cdf",
    "norm_inv",
    "premium_runoff",
    "price_cap",
    "pvfp",
    "pvfp_batch",
    "pvfp_stats",
    "remuneration_option_cost",
    "risk_statistics",
    "underwriting_risk_cost",
    "volatility_score",
]
