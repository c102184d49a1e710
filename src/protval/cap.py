"""Black-76 pricing of the distributor-remuneration option.

The remuneration scheme pays the distributor the positive excess of a market
index rate over a contractual minimum rate, on the technical provisions of
the portfolio. That payoff is a cap: a strip of caplets whose notionals are
the projected provisions per period. ``cap_strip`` tabulates each period's
pricing inputs once; the pricer and the report both read that table.

Values from the pricer are nonnegative option values; report layers negate
them when presenting them as insurer costs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .curves import VolTermStructure, ZeroCurve

_SQRT2 = math.sqrt(2.0)


def norm_cdf(x: float) -> float:
    """Standard normal CDF, accurate to double precision via erfc."""
    return 0.5 * math.erfc(-x / _SQRT2)


def caplet_price(
    notional: float,
    df_pay: float,
    fwd: float,
    strike: float,
    vol: float,
    t_fix: float,
    accrual: float = 1.0,
) -> float:
    """Black-76 value of one caplet.

    N * accrual * DF * [F * cdf(d) - E * cdf(d - vol*sqrt(t_fix))] with
    d = [ln(F/E) + vol^2 * t_fix / 2] / (vol * sqrt(t_fix)).

    Degenerates to the discounted intrinsic value N * accrual * DF *
    max(F - E, 0) when the fixing is immediate (t_fix = 0) or the rate is
    deterministic (vol = 0).
    """
    if strike <= 0.0:
        raise ValueError(f"strike must be > 0, got {strike}")
    if vol < 0.0:
        raise ValueError(f"vol must be >= 0, got {vol}")
    if notional < 0.0:
        raise ValueError(f"notional must be >= 0, got {notional}")
    if t_fix < 0.0:
        raise ValueError(f"fixing time must be >= 0, got {t_fix}")
    if accrual <= 0.0:
        raise ValueError(f"accrual must be > 0, got {accrual}")

    scale = notional * accrual * df_pay
    sd = vol * math.sqrt(t_fix)
    if sd == 0.0:  # vol = 0, t_fix = 0 or an underflowing product: the deterministic limit
        return scale * max(fwd - strike, 0.0)
    if fwd <= 0.0:
        raise ValueError(f"forward must be > 0 when vol > 0, got {fwd}")
    d = (math.log(fwd / strike) + 0.5 * vol * vol * t_fix) / sd
    return scale * (fwd * norm_cdf(d) - strike * norm_cdf(d - sd))


@dataclass(frozen=True)
class CapSpec:
    """Cap on a market index with one notional per period.

    ``notionals[j]`` is the technical-provision amount for period index j,
    j = 0..n. The period-0 entry is carried for reporting but its
    caplet is already fixed and never enters the option value.

    ``strikes`` optionally overrides the contractual strike per period
    (some remuneration conventions display a period-varying rate).
    ``use_spot_for_first_period`` bases the already-running period 0 on the
    observed spot index rate instead of the curve-implied one; the two need
    not agree, and conventions quote the observed rate.
    """

    strike: float
    notionals: tuple[float, ...]
    index_tenor: float
    accrual: float = 1.0
    strikes: tuple[float, ...] | None = None
    use_spot_for_first_period: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "notionals", tuple(float(n) for n in self.notionals))
        if self.strikes is not None:
            object.__setattr__(self, "strikes", tuple(float(s) for s in self.strikes))
        if self.strike <= 0.0:
            raise ValueError(f"strike must be > 0, got {self.strike}")
        if len(self.notionals) < 2:
            raise ValueError("need notionals for period indices 0..n with n >= 1")
        if any(n < 0.0 for n in self.notionals):
            raise ValueError("notionals must be >= 0")
        if self.accrual <= 0.0:
            raise ValueError(f"accrual_years must be > 0, got {self.accrual}")
        if self.index_tenor <= 0.0:
            raise ValueError(f"index_tenor_years must be > 0, got {self.index_tenor}")
        if self.strikes is not None and len(self.strikes) != len(self.notionals):
            raise ValueError("per-period strikes must cover period indices 0..n")
        if self.strikes is not None and any(k <= 0.0 for k in self.strikes):
            raise ValueError("per-period strikes must be > 0")


@dataclass(frozen=True)
class CapStrip:
    """Per-period caplet inputs for period indices 0..n, as priced and as reported."""

    accrual: float
    notionals: tuple[float, ...]
    fixing_times: tuple[float, ...]
    discount_factors: tuple[float, ...]
    forwards: tuple[float, ...]
    strikes: tuple[float, ...]
    vols: tuple[float, ...]


def cap_strip(
    spec: CapSpec,
    curve: ZeroCurve,
    vols: VolTermStructure,
    spot_index_rate: float | None = None,
) -> CapStrip:
    """The per-period table of the cap strip on the given curve and vols.

    Caplet j fixes at the start of its period, max(j * accrual - accrual, 0)
    (period 0 is already running, fixed at t = 0), on the forward of the
    index tenor, and pays at T_j = j * accrual, discounted with B(0, T_j)
    and using the Black vol quoted for the fixing time. Period 0 takes the
    observed ``spot_index_rate`` instead of the curve forward when the spec
    opts into the override (the two need not agree); ``spec.strikes``
    overrides the strike per period.
    """
    if spec.use_spot_for_first_period and spot_index_rate is None:
        raise ValueError("use_spot_for_first_period needs a spot index rate")
    periods = range(len(spec.notionals))
    fixing_times = tuple(max(j * spec.accrual - spec.accrual, 0.0) for j in periods)
    forwards = tuple(
        spot_index_rate
        if j == 0 and spec.use_spot_for_first_period
        else curve.forward_index_rate(fixing_times[j], spec.index_tenor)
        for j in periods
    )
    return CapStrip(
        accrual=spec.accrual,
        notionals=spec.notionals,
        fixing_times=fixing_times,
        discount_factors=tuple(curve.discount_factor(j * spec.accrual) for j in periods),
        forwards=forwards,
        strikes=spec.strikes if spec.strikes is not None else (spec.strike,) * len(periods),
        vols=tuple(vols.vol_at(t) for t in fixing_times),
    )


@dataclass(frozen=True)
class CapValuation:
    """Cap strip valuation with the aggregates used in remuneration reports.

    ``caplet_values[j]`` is the period-j value; the stochastic value sums
    periods 1..n only (the period-0 caplet is already fixed and paid).
    Values carry the caller's sign convention: the pricer produces
    nonnegative option values, replayed report figures are insurer costs.
    """

    caplet_values: tuple[float, ...]
    stochastic_value: float
    deterministic_value: float
    valuation_spread: float
    booked_flows_pv: float
    crd: float

    @classmethod
    def from_caplets(
        cls,
        caplet_values: Sequence[float],
        deterministic_value: float,
        booked_flows_pv: float = 0.0,
        tax_rate: float = 0.0,
    ) -> "CapValuation":
        """Assemble the aggregates from per-period caplet values.

        Used both by the pricer and by replay mode, where externally booked
        per-period figures are supplied and only the aggregate identities
        are recomputed.
        """
        values = tuple(float(v) for v in caplet_values)
        stochastic = sum(values[1:])
        return cls(
            caplet_values=values,
            stochastic_value=stochastic,
            deterministic_value=float(deterministic_value),
            valuation_spread=stochastic - float(deterministic_value),
            booked_flows_pv=float(booked_flows_pv),
            crd=remuneration_option_cost(stochastic, booked_flows_pv, tax_rate),
        )


def price_cap(strip: CapStrip) -> CapValuation:
    """Value the cap strip with Black-76, one caplet per period of the table.

    The deterministic value reprices the same strip with all vols forced
    to zero. A caplet that cannot be priced raises a ValueError naming its
    period index.
    """
    stochastic, deterministic = [], []
    for j, (n, df, fwd, k, vol, t) in enumerate(zip(
        strip.notionals, strip.discount_factors, strip.forwards, strip.strikes, strip.vols, strip.fixing_times
    )):
        try:
            stochastic.append(caplet_price(n, df, fwd, k, vol, t, strip.accrual))
        except ValueError as exc:
            raise ValueError(f"period {j}: {exc}") from exc
        deterministic.append(caplet_price(n, df, fwd, k, 0.0, t, strip.accrual))
    return CapValuation.from_caplets(stochastic, deterministic_value=sum(deterministic[1:]))


def remuneration_option_cost(stochastic_value: float, booked_flows_pv: float, tax_rate: float) -> float:
    """Net option cost after tax, beyond what the deterministic account already books.

    (stochastic value - discounted booked flows) * (1 - tax rate).
    """
    if not 0.0 <= tax_rate < 1.0:
        raise ValueError(f"tax_rate must be in [0, 1), got {tax_rate}")
    return (stochastic_value - booked_flows_pv) * (1.0 - tax_rate)
