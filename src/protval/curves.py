"""Zero-coupon curve, discount factors, forward index rates and Black volatilities.

Rates are annually compounded decimals (0.0268 means 2.68%). Interpolation is
linear in rate over tenor, flat beyond the last node: projection horizons
(30 years) routinely exceed the quoted grid, and the sparse annual grids
typical of aggregate market data do not support anything fancier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


def _check_nonnegative(values: Sequence[float], what: str) -> None:
    """Raise a ValueError naming the first of ``values`` below 0."""
    for value in values:
        if value < 0.0:
            raise ValueError(f"{what} must be >= 0, got {value}")


def _outside_float_range(t: float, z: float) -> ValueError:
    """The error for a discount factor at tenor ``t`` and zero rate ``z`` that is outside the float range."""
    return ValueError(f"discount factor at tenor {t:g} with zero rate {z!r} is outside the float range")


def _discount_factor(t: float, z: float) -> float:
    """(1 + z)^-t with Python's ``**``; 1 at t = 0. Overflow or underflow to 0 raises a ValueError."""
    if t == 0.0:
        return 1.0
    try:
        df = (1.0 + z) ** -t
        if df > 0.0:
            return df
    except OverflowError:
        pass
    raise _outside_float_range(t, z)


@dataclass(frozen=True)
class ZeroCurve:
    """Annually-compounded zero curve: DF(t) = (1 + z(t))^-t.

    Each lookup takes a sequence of times and interpolates them all in one call.
    """

    tenors: tuple[float, ...]
    zero_rates: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "tenors", tuple(float(t) for t in self.tenors))
        object.__setattr__(self, "zero_rates", tuple(float(z) for z in self.zero_rates))
        if len(self.tenors) != len(self.zero_rates):
            raise ValueError("tenors and zero_rates must have the same length")
        if not self.tenors:
            raise ValueError("curve must have at least one node")
        if self.tenors[0] < 0.0:
            raise ValueError("first tenor must be >= 0")
        if any(b <= a for a, b in zip(self.tenors, self.tenors[1:])):
            raise ValueError("tenors must be strictly increasing")
        if any(z <= -1.0 for z in self.zero_rates):
            raise ValueError("zero rates must be > -1")

    def zero_rates_at(self, tenors: Sequence[float]) -> list[float]:
        """Interpolated zero rate at each of ``tenors`` (linear in rate, flat outside)."""
        _check_nonnegative(tenors, "tenor")
        return np.interp(tenors, self.tenors, self.zero_rates).tolist()

    def discount_factors(self, times: Sequence[float]) -> list[float]:
        """Discount factor (1 + z(t))^-t at each of ``times``; 1 at t = 0.

        The first factor that overflows or underflows to 0 raises a ValueError.
        """
        return [_discount_factor(t, z) for t, z in zip(times, self.zero_rates_at(times))]

    def spread_discounts(self, horizon: int, extra_spread: float = 0.0) -> np.ndarray:
        """Discount factors (1 + z(t) + extra_spread)^-t for t = 1..horizon, as one numpy power.

        Zero spread is the risk-free rate. The first factor that overflows
        raises the ValueError of ``discount_factors``; one that underflows is 0,
        which drops its year from a PVFP.
        """
        if extra_spread < 0.0:
            raise ValueError(f"extra spread must be >= 0, got {extra_spread}")
        years = np.arange(1, horizon + 1, dtype=float)
        rates = np.interp(years, self.tenors, self.zero_rates)
        with np.errstate(over="ignore"):
            factors = (1.0 + rates + extra_spread) ** -years
        overflow = np.isinf(factors)
        if overflow.any():
            year = int(np.argmax(overflow))
            raise _outside_float_range(float(years[year]), float(rates[year]))
        return factors

    def forward_index_rates(self, fixes: Sequence[float], tenor: float) -> list[float]:
        """Annualized geometric forward rate fixing at each of ``fixes`` for an index of ``tenor`` years.

        Each satisfies (1 + fwd)^tenor * DF(fix + tenor) = DF(fix). At fix = 0
        it is the spot zero rate of the index tenor (> 0, as a ``CapSpec`` holds
        it). The first fixing whose discount factors or forward are outside the
        float range raises.
        """
        _check_nonnegative(fixes, "fixing time")
        ends = [fix + tenor for fix in fixes]
        forwards = []
        for fix, end, z_fix, z_end in zip(fixes, ends, self.zero_rates_at(fixes), self.zero_rates_at(ends)):
            ratio = _discount_factor(fix, z_fix) / _discount_factor(end, z_end)
            try:
                forwards.append(ratio ** (1.0 / tenor) - 1.0)
            except OverflowError:
                forwards.append(math.inf)
            if not math.isfinite(forwards[-1]):
                raise ValueError(f"forward rate fixing at {fix:g} for {tenor:g} years is outside the float range")
        return forwards


@dataclass(frozen=True)
class VolTermStructure:
    """Black lognormal volatilities per caplet fixing time.

    Linear interpolation in fixing time, flat extrapolation outside the
    quoted range.
    """

    fixing_times: tuple[float, ...]
    black_vols: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "fixing_times", tuple(float(t) for t in self.fixing_times))
        object.__setattr__(self, "black_vols", tuple(float(v) for v in self.black_vols))
        if len(self.fixing_times) != len(self.black_vols):
            raise ValueError("fixing_times and black_vols must have the same length")
        if not self.fixing_times:
            raise ValueError("volatility term structure is empty")
        if any(b <= a for a, b in zip(self.fixing_times, self.fixing_times[1:])):
            raise ValueError("fixing_times must be strictly increasing")
        # zero is allowed: an all-zero surface is the deterministic pricing limit
        if any(v < 0.0 for v in self.black_vols):
            raise ValueError("volatilities must be >= 0")

    def vols_at(self, fixes: Sequence[float]) -> list[float]:
        """Volatility for a caplet fixing at each of ``fixes`` years."""
        _check_nonnegative(fixes, "fixing time")
        return np.interp(fixes, self.fixing_times, self.black_vols).tolist()
