"""Stochastic loss-ratio scenarios for portfolios known only in aggregate.

The actuarial loss ratio S/P of year 1 is drawn from a lognormal law whose
parameters are inverted from the expected ratio and a relative volatility.
The volatility either comes straight from the portfolio's configuration or
from a qualitative scoring grid: one age criterion and five risk criteria,
each mapped to a multiplicative weight; the product of the six selected
weights is the volatility.

Later years revert geometrically to the deterministic chronicle: the year-1
gap shrinks by a factor ``reversion_speed`` per year. A speed of 0.8 halves
the gap in about three years.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .cap import norm_cdf
from .errors import ConfigError

if TYPE_CHECKING:
    from .projection import PortfolioSpec

DEFAULT_REVERSION_SPEED = 0.8
DEFAULT_SCENARIOS = 10_000
DEFAULT_HORIZON = 30

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
CRITERIA = (AGE_CRITERION,) + RATING_CRITERIA

_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Acklam's rational approximation of the standard normal quantile
# (relative error ~1.15e-9 before refinement).
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)
_P_LOW = 0.02425


def _rational_tail(q: np.ndarray) -> np.ndarray:
    return ((((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5])
            / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0))


def norm_inv(u: float | np.ndarray) -> float | np.ndarray:
    """Standard normal quantile, accurate to well below 1e-9 absolute.

    Acklam's rational approximation refined with one Halley step against the
    erfc-based CDF, which leaves errors near machine precision. Takes a
    float (and returns a float) or an array (and returns an array of the
    same shape); every probability must lie in (0, 1).
    """
    p = np.asarray(u, dtype=float)
    flat = p.reshape(-1)
    inside = (flat > 0.0) & (flat < 1.0)
    if not inside.all():
        raise ValueError(f"probability must be in (0, 1), got {flat[~inside][0]}")

    x = np.empty_like(flat)
    lower = flat < _P_LOW
    upper = flat > 1.0 - _P_LOW
    central = ~(lower | upper)
    q = flat[central] - 0.5
    r = q * q
    x[central] = ((((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]) * q
                  / (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0))
    x[lower] = _rational_tail(np.sqrt(-2.0 * np.log(flat[lower])))
    x[upper] = -_rational_tail(np.sqrt(-2.0 * np.log(1.0 - flat[upper])))

    # Halley refinement: e is the CDF residual at x.
    e = norm_cdf(x) - flat
    w = e * _SQRT_2PI * np.exp(0.5 * x * x)
    x = x - w / (1.0 + 0.5 * x * w)
    return float(x[0]) if p.ndim == 0 else x.reshape(p.shape)


@dataclass(frozen=True)
class RiskCriteria:
    """Qualitative volatility drivers of one portfolio.

    The five risk ratings take the levels "strong", "moderate" or "weak"
    (the level of risk, not of quality: a strong concentration risk pushes
    volatility up).
    """

    portfolio_age: float
    homogeneity: str
    technical_bases_quality: str
    concentration: str
    moral_hazard: str
    litigation: str

    def __post_init__(self) -> None:
        if self.portfolio_age < 0.0:
            raise ValueError(f"portfolio_age_years must be >= 0, got {self.portfolio_age}")
        for name in RATING_CRITERIA:
            level = getattr(self, name)
            if level not in RATING_LEVELS:
                raise ValueError(f"{name} must be one of {RATING_LEVELS}, got {level!r}")

    @property
    def age_bucket(self) -> str:
        if self.portfolio_age < 1.0:
            return "lt_1y"
        if self.portfolio_age < 4.0:
            return "lt_4y"
        return "ge_4y"


@dataclass(frozen=True)
class WeightMatrix:
    """Multiplicative weight per (criterion, bucket) cell of the scoring grid."""

    cells: Mapping[str, Mapping[str, float]]

    def __post_init__(self) -> None:
        for criterion in CRITERIA:
            buckets = AGE_BUCKETS if criterion == AGE_CRITERION else RATING_LEVELS
            row = self.cells.get(criterion)
            if row is None:
                raise ConfigError(f"weight matrix is missing criterion {criterion!r}")
            for bucket in buckets:
                weight = row.get(bucket)
                if weight is None:
                    raise ConfigError(f"weight matrix is missing cell ({criterion!r}, {bucket!r})")
                if weight <= 0.0:
                    raise ConfigError(
                        f"weight for ({criterion!r}, {bucket!r}) must be > 0, got {weight}"
                    )

    def weight(self, criterion: str, bucket: str) -> float:
        try:
            return float(self.cells[criterion][bucket])
        except KeyError as exc:
            raise ConfigError(f"weight matrix is missing cell ({criterion!r}, {bucket!r})") from exc


def volatility_score(criteria: RiskCriteria, weights: WeightMatrix) -> float:
    """Relative volatility of S/P as the product of the six selected weights."""
    vol = weights.weight(AGE_CRITERION, criteria.age_bucket)
    for name in RATING_CRITERIA:
        vol *= weights.weight(name, getattr(criteria, name))
    return vol


@dataclass(frozen=True)
class LognormalParams:
    """Parameters of the lognormal law LN(mu, sigma) followed by S/P(1).

    sigma = 0 is the degenerate point mass at exp(mu).
    """

    mu: float
    sigma: float

    def __post_init__(self) -> None:
        if self.sigma < 0.0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")
        try:
            finite = math.isfinite(self.mean)
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError("implied mean exp(mu + sigma^2/2) must be finite")

    @property
    def mean(self) -> float:
        return math.exp(self.mu + 0.5 * self.sigma * self.sigma)

    @property
    def coefficient_of_variation(self) -> float:
        return math.sqrt(math.expm1(self.sigma * self.sigma))


def lognormal_params(mean_sp: float, vol_sp: float) -> LognormalParams:
    """Invert (mean, relative volatility) into lognormal parameters.

    ``vol_sp`` is the coefficient of variation of S/P:
    sigma = sqrt(ln(vol^2 + 1)), mu = ln(mean) - sigma^2 / 2.
    """
    if vol_sp < 0.0:
        raise ValueError(f"volatility must be >= 0, got {vol_sp}")
    return lognormal_params_from_sigma(mean_sp, math.sqrt(math.log1p(vol_sp * vol_sp)))


def lognormal_params_from_sigma(mean_sp: float, sigma: float) -> LognormalParams:
    """Lognormal parameters from the mean and a directly specified sigma."""
    if mean_sp <= 0.0:
        raise ValueError(f"expected loss ratio must be > 0, got {mean_sp}")
    if sigma < 0.0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    return LognormalParams(mu=math.log(mean_sp) - 0.5 * sigma * sigma, sigma=sigma)


def standard_normals(n: int, seed: int) -> np.ndarray:
    """n standard normal draws norm_inv(u_i), deterministic for a given seed.

    u_i is the i-th uniform of one Philox stream keyed by the seed, so the
    first k of n draws are the k draws. random() can return exactly 0.0,
    which the quantile rejects; that uniform is nudged to 2**-53. A run
    draws this vector once and every portfolio reads it.
    """
    if n < 1:
        raise ValueError(f"scenario count must be >= 1, got {n}")
    u = np.random.Generator(np.random.Philox(seed)).random(n)
    u[u == 0.0] = 2.0 ** -53
    return norm_inv(u)


def draw_initial_ratios(params: LognormalParams, z: np.ndarray) -> np.ndarray:
    """Year-1 loss ratios exp(z_i * sigma + mu), one per standard normal draw z_i."""
    if params.sigma == 0.0:
        return np.full(len(z), math.exp(params.mu))
    return np.exp(z * params.sigma + params.mu)


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


def resolve_params(portfolio: "PortfolioSpec", weights: WeightMatrix | None = None) -> LognormalParams:
    """Lognormal parameters for a portfolio: direct sigma if given, else scored.

    The direct-sigma route bypasses the qualitative grid entirely; the scored
    route needs a weight matrix.
    """
    if portfolio.sigma is not None:
        return lognormal_params_from_sigma(portfolio.mean_sp, portfolio.sigma)
    if portfolio.criteria is None:
        raise ConfigError(f"portfolio {portfolio.id!r} has neither sigma nor risk criteria")
    if weights is None:
        raise ConfigError(f"portfolio {portfolio.id!r} uses risk criteria but no weight matrix was given")
    return lognormal_params(portfolio.mean_sp, volatility_score(portfolio.criteria, weights))


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
