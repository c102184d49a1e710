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
the gap in about three years.
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


def _check_reversion_speed(nu: float) -> None:
    if not 0.0 < nu <= 1.0:
        raise ValueError(f"reversion speed must be in (0, 1], got {nu}")


def reverting_paths(
    sp1: np.ndarray,
    chronicle: Sequence[float] | np.ndarray,
    nu: float,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, int]:
    """Loss-ratio paths reverting from each year-1 ratio to the chronicle, and how many values were floored.

    Row i of the (len(sp1) x years) matrix is
    chronicle[t] + (sp1[i] - chronicle[1]) * nu^(t-1), floored at 0 (loss
    ratios are nonnegative; deep negative gaps can otherwise push the
    formula below zero). Column one holds ``sp1``. The matrix is built in
    ``out`` when given, else in a new array; the sum is commutative in IEEE
    arithmetic, so building it in place does not change the bits.
    """
    chron = np.asarray(chronicle, dtype=float)
    if chron.ndim != 1 or chron.size == 0:
        raise ValueError("chronicle must be a non-empty vector")
    if np.any(chron <= 0.0):
        raise ValueError("chronicle values must be > 0")
    _check_reversion_speed(nu)
    paths = np.empty((len(sp1), chron.size)) if out is None else out
    np.multiply((sp1 - chron[0])[:, np.newaxis], nu ** np.arange(chron.size), out=paths)
    paths += chron
    paths[:, 0] = sp1
    floored = int(np.count_nonzero(paths < 0.0))
    np.maximum(paths, 0.0, out=paths)
    return paths, floored


def histogram(values: Sequence[float] | np.ndarray, bin_width: float) -> list[tuple[float, int]]:
    """Counts per left-closed bin [k*w, (k+1)*w), as (left edge, count) pairs.

    Bins are contiguous from 0 (or from the lowest occupied bin if values go
    negative) up to the highest occupied bin, so the output can be tabulated
    directly. The small epsilon keeps values like 0.3 in the bin whose edge
    they mathematically sit on despite binary rounding of v / w.
    """
    if bin_width <= 0.0:
        raise ValueError(f"bin width must be > 0, got {bin_width}")
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return []
    k = np.floor(arr / bin_width + 1e-9).astype(int)
    k_lo = min(0, int(k.min()))
    counts = np.bincount(k - k_lo, minlength=int(k.max()) - k_lo + 1)
    return [((k_lo + i) * bin_width, int(c)) for i, c in enumerate(counts)]
