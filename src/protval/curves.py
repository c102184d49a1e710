"""Zero-coupon curve, discount factors, forward index rates and Black volatilities.

Rates are annually compounded decimals (0.0268 means 2.68%). Interpolation is
linear in rate over tenor, flat beyond the last node: projection horizons
(30 years) routinely exceed the quoted grid, and the sparse annual grids
typical of aggregate market data do not support anything fancier.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ZeroCurve:
    """Annually-compounded zero curve: DF(t) = (1 + z(t))^-t."""

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

    def zero_rate(self, t: float) -> float:
        """Interpolated zero rate at tenor ``t`` (linear in rate, flat outside)."""
        if t < 0.0:
            raise ValueError(f"tenor must be >= 0, got {t}")
        return float(np.interp(t, self.tenors, self.zero_rates))

    def discount_factor(self, t: float) -> float:
        """Discount factor (1 + z(t))^-t; equals 1 at t = 0."""
        if t == 0.0:
            return 1.0
        return (1.0 + self.zero_rate(t)) ** -t

    def forward_index_rate(self, fix: float, tenor: float) -> float:
        """Annualized geometric forward rate fixing at ``fix`` for an index of ``tenor`` years.

        Satisfies (1 + fwd)^tenor * DF(fix + tenor) = DF(fix). At fix = 0 this
        is the spot zero rate of the index tenor.
        """
        if fix < 0.0:
            raise ValueError(f"fixing time must be >= 0, got {fix}")
        if tenor <= 0.0:
            raise ValueError(f"index tenor must be > 0, got {tenor}")
        ratio = self.discount_factor(fix) / self.discount_factor(fix + tenor)
        return ratio ** (1.0 / tenor) - 1.0


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

    def vol_at(self, fix: float) -> float:
        """Volatility for a caplet fixing at ``fix`` years."""
        if fix < 0.0:
            raise ValueError(f"fixing time must be >= 0, got {fix}")
        return float(np.interp(fix, self.fixing_times, self.black_vols))

