"""Stochastic loss-ratio scenarios for portfolios known only in aggregate.

The actuarial loss ratio S/P of year 1 is drawn from a lognormal law whose
parameters are inverted from the expected ratio and a relative volatility.
The volatility either comes straight from the portfolio's configuration or
from a qualitative scoring grid: one age criterion and five risk criteria,
each mapped to a multiplicative weight; the product of the six selected
weights is the volatility. The five risk ratings take the levels "strong",
"moderate" or "weak": the level of risk, not of quality, so a strong
concentration risk pushes volatility up.

Later years revert geometrically to the deterministic chronicle: the year-1
gap shrinks by a factor ``reversion_speed`` per year. A speed of 0.8 halves
the gap in about three years. Each year of a path is thus a nondecreasing
function of its one year-1 ratio, so the quantiles of every year follow from
order statistics of the ratios, with no path matrix built.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

DEFAULT_REVERSION_SPEED = 0.8
DEFAULT_SCENARIOS = 10_000
DEFAULT_HORIZON = 30
# Realistic laws give back their mean within about 1e-16 (acceptance criterion 7).
MEAN_ROUND_TRIP_RTOL = 1e-9

RATING_LEVELS = ("strong", "moderate", "weak")
AGE_BUCKETS = ("lt_1y", "lt_4y", "ge_4y")
AGE_CRITERION = "portfolio_age"
RATING_CRITERIA = (
    "homogeneity",
    "technical_bases_quality",
    "concentration",
    "moral_hazard",
    "litigation",
)
BUCKETS = {AGE_CRITERION: AGE_BUCKETS, **dict.fromkeys(RATING_CRITERIA, RATING_LEVELS)}


def age_bucket(age: float) -> str:
    """The portfolio-age bucket of an age in years."""
    if age < 1.0:
        return "lt_1y"
    if age < 4.0:
        return "lt_4y"
    return "ge_4y"


def volatility_score(buckets: Mapping[str, str], weights: Mapping[str, Mapping[str, float]]) -> float:
    """Relative volatility of S/P as the product of the six selected weights.

    ``buckets`` maps each criterion of ``BUCKETS`` to its bucket and
    ``weights`` each criterion to its {bucket: weight} row.
    """
    vol = weights[AGE_CRITERION][buckets[AGE_CRITERION]]
    for name in RATING_CRITERIA:
        vol *= weights[name][buckets[name]]
    return vol


def lognormal_sigma(vol_sp: float) -> float:
    """The sigma of the lognormal law whose coefficient of variation is ``vol_sp``: sqrt(ln(vol^2 + 1))."""
    if vol_sp < 0.0:
        raise ValueError(f"volatility must be >= 0, got {vol_sp}")
    return math.sqrt(math.log1p(vol_sp * vol_sp))


def lognormal_mu(mean_sp: float, sigma: float) -> float:
    """The mu of the lognormal law LN(mu, sigma) of mean ``mean_sp``: ln(mean) - sigma^2 / 2.

    sigma = 0 is the point mass at the mean. The implied mean exp(mu + sigma^2/2)
    must be finite and give back ``mean_sp`` within ``MEAN_ROUND_TRIP_RTOL``: for a
    huge but finite sigma, ln(mean) is lost in the rounding of mu and the law has
    another mean.
    """
    if mean_sp <= 0.0:
        raise ValueError(f"retained loss ratio must be > 0, got {mean_sp}")
    if sigma < 0.0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    mu = math.log(mean_sp) - 0.5 * sigma * sigma
    try:
        implied = math.exp(mu + 0.5 * sigma * sigma)
    except OverflowError:
        implied = math.inf
    if not math.isfinite(implied):
        raise ValueError("implied mean exp(mu + sigma^2/2) must be finite")
    if abs(implied - mean_sp) > MEAN_ROUND_TRIP_RTOL * mean_sp:
        raise ValueError(
            f"implied mean exp(mu + sigma^2/2) must equal the retained loss ratio {mean_sp!r} "
            f"within a relative {MEAN_ROUND_TRIP_RTOL}, got {implied!r} for sigma {sigma!r}"
        )
    return mu


def standard_normals(n: int, seed: int) -> np.ndarray:
    """n standard normal draws, deterministic for a given seed.

    numpy's ``standard_normal`` (the ziggurat method) on one Philox stream
    keyed by the seed, so the first k of n draws are the k draws. A run
    draws this vector once and every portfolio reads it.
    """
    if n < 1:
        raise ValueError(f"scenario count must be >= 1, got {n}")
    return np.random.Generator(np.random.Philox(seed)).standard_normal(n)


def draw_initial_ratios(mu: float, sigma: float, z: np.ndarray) -> np.ndarray:
    """Year-1 loss ratios exp(z_i * sigma + mu), one per standard normal draw z_i."""
    if sigma == 0.0:
        return np.full(len(z), math.exp(mu))
    return np.exp(z * sigma + mu)


def reverting_paths(
    sp1: np.ndarray,
    chronicle: Sequence[float] | np.ndarray,
    nu: float,
) -> tuple[np.ndarray, int]:
    """Loss-ratio paths reverting from each year-1 ratio to the chronicle, and how many values were floored.

    Row i of the (len(sp1) x years) matrix is
    chronicle[t] + (sp1[i] - chronicle[1]) * nu^(t-1), floored at 0 (loss
    ratios are nonnegative; deep negative gaps can otherwise push the
    formula below zero). Column one holds ``sp1``. The chronicle and ``nu``
    are a ``PortfolioSpec``'s, checked there.
    """
    chron = np.asarray(chronicle, dtype=float)
    paths = (sp1 - chron[0])[:, np.newaxis] * nu ** np.arange(chron.size)
    paths += chron
    paths[:, 0] = sp1
    floored = int(np.count_nonzero(paths < 0.0))
    np.maximum(paths, 0.0, out=paths)
    return paths, floored


def path_quantiles(
    sp1: np.ndarray,
    chronicle: Sequence[float] | np.ndarray,
    nu: float,
    probs: Sequence[float],
) -> np.ndarray:
    """The ``probs`` quantiles of each year of ``reverting_paths(sp1, chronicle, nu)``, one row per year.

    Year t of a path is f_t(sp1) = max(chronicle[t] + (sp1 - chronicle[1]) * nu^(t-1), 0),
    nondecreasing in sp1 for ``nu`` > 0 in floats too, as correctly rounded
    arithmetic is monotone. So the k-th smallest value of a year is f_t of the
    k-th smallest ratio, and the paths of the two order statistics around each
    quantile give every year's quantile. They are interpolated as numpy's
    default linear method does: virtual index (n - 1) * p, and
    a + (b - a) * g, or b - (b - a) * (1 - g) where g >= 0.5. The result has
    the bits of ``np.quantile(paths, probs, axis=0).T``.
    """
    n = len(sp1)
    virtual = (n - 1) * np.asarray(probs, dtype=float)
    below = np.floor(virtual)
    gamma = (virtual - below)[:, np.newaxis]
    lower = below.astype(np.intp)
    ranks = np.concatenate((lower, np.minimum(lower + 1, n - 1)))
    ordered = np.partition(sp1, np.unique(ranks))
    a, b = np.split(reverting_paths(ordered[ranks], chronicle, nu)[0], 2)
    diff = b - a
    return np.where(gamma >= 0.5, b - diff * (1 - gamma), a + diff * gamma).T
