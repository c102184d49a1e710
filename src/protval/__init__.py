"""Deterministic valuation engine for individual-protection portfolios in aggregate data.

Two risk measures are produced:

* the market-risk cost of a distributor remuneration scheme, priced as a
  strip of Black-76 caplets with time-varying notionals, and
* the life-underwriting risk cost, from lognormal loss-ratio scenarios,
  PVFP projection and a risk-aversion spread.
"""

__version__ = "0.3.0"
