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
    deterministic (vol = 0). The inputs are a row of a ``cap_strip``, checked
    there; only the forward, which comes from the curve, is checked here.
    """
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
    """Cap on a market index with one notional and one strike per period.

    ``notionals[j]`` and ``strikes[j]`` are the technical-provision amount
    and the contractual rate for period index j, j = 0..n. The period-0
    entry is carried for reporting but its caplet is already fixed and never
    enters the option value. ``first_forward`` is the observed index rate
    the already-running period 0 is based on, or None to use the
    curve-implied forward; the two need not agree, and conventions quote the
    observed rate.
    """

    notionals: tuple[float, ...]
    strikes: tuple[float, ...]
    index_tenor: float
    accrual: float = 1.0
    first_forward: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "notionals", tuple(float(n) for n in self.notionals))
        object.__setattr__(self, "strikes", tuple(float(s) for s in self.strikes))
        if len(self.notionals) < 2:
            raise ValueError("need notionals for period indices 0..n with n >= 1")
        if any(n < 0.0 for n in self.notionals):
            raise ValueError("notionals must be >= 0")
        if self.accrual <= 0.0:
            raise ValueError(f"accrual_years must be > 0, got {self.accrual}")
        if self.index_tenor <= 0.0:
            raise ValueError(f"index_tenor_years must be > 0, got {self.index_tenor}")
        if len(self.strikes) != len(self.notionals):
            raise ValueError("per-period strikes must cover period indices 0..n")
        bad = next((k for k in self.strikes if k <= 0.0), None)
        if bad is not None:
            raise ValueError(f"strikes must be > 0, got {bad}")


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


def cap_strip(spec: CapSpec, curve: ZeroCurve, vols: VolTermStructure) -> CapStrip:
    """The per-period table of the cap strip on the given curve and vols.

    Caplet j fixes at the start of its period, max(j * accrual - accrual, 0)
    (period 0 is already running, fixed at t = 0), on the forward of the
    index tenor, and pays at T_j = j * accrual, discounted with B(0, T_j)
    and using the Black vol quoted for the fixing time. Period 0 takes
    ``spec.first_forward`` instead of the curve forward when it is given.
    Each kind of curve or vol lookup is one vector call, whatever the period count.
    """
    periods = range(len(spec.notionals))
    fixing_times = tuple(max(j * spec.accrual - spec.accrual, 0.0) for j in periods)
    if spec.first_forward is None:
        forwards = curve.forward_index_rates(fixing_times, spec.index_tenor)
    else:
        forwards = [spec.first_forward] + curve.forward_index_rates(fixing_times[1:], spec.index_tenor)
    return CapStrip(
        accrual=spec.accrual,
        notionals=spec.notionals,
        fixing_times=fixing_times,
        discount_factors=tuple(curve.discount_factors([j * spec.accrual for j in periods])),
        forwards=tuple(forwards),
        strikes=spec.strikes,
        vols=tuple(vols.vols_at(fixing_times)),
    )


@dataclass(frozen=True)
class CapValuation:
    """Cap strip valuation with the aggregates used in remuneration reports.

    ``caplet_values[j]`` is the period-j value; the stochastic value sums
    periods 1..n only (the period-0 caplet is already fixed and paid).
    Values carry the caller's sign convention: the pricer produces
    nonnegative option values, replayed report figures are insurer costs.
    The aggregates are properties of these inputs, so they match the caplets;
    an aggregate outside the float range raises at construction. ``tax_rate``
    is taken as checked: ``price-cap`` passes ``RunConfig.tax_rate``, in [0, 1).
    """

    caplet_values: tuple[float, ...]
    deterministic_value: float
    booked_flows_pv: float = 0.0
    tax_rate: float = 0.0

    # The aggregates a cap report and ``price-cap``'s summary list, in their order.
    AGGREGATES = ("stochastic_value", "deterministic_value", "valuation_spread", "booked_flows_pv", "crd")

    def __post_init__(self) -> None:
        object.__setattr__(self, "caplet_values", tuple(float(v) for v in self.caplet_values))
        for name in ("stochastic_value", "valuation_spread", "crd"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")

    @property
    def stochastic_value(self) -> float:
        return sum(self.caplet_values[1:])

    @property
    def valuation_spread(self) -> float:
        return self.stochastic_value - self.deterministic_value

    @property
    def crd(self) -> float:
        """Net option cost after tax beyond the booked flows: (stochastic value - booked flows pv) * (1 - tax rate)."""
        return (self.stochastic_value - self.booked_flows_pv) * (1.0 - self.tax_rate)


def price_cap(strip: CapStrip) -> tuple[tuple[float, ...], float]:
    """Value the cap strip with Black-76, one caplet per period of the table.

    Returns ``(caplet_values, deterministic_value)``, the pair a cap spec's
    replay block holds. The deterministic value reprices the same strip with
    all vols forced to zero. A caplet that cannot be priced, or whose value
    is outside the float range, raises a ValueError naming its period index.
    """
    stochastic, deterministic = [], []
    for j, (n, df, fwd, k, vol, t) in enumerate(zip(
        strip.notionals, strip.discount_factors, strip.forwards, strip.strikes, strip.vols, strip.fixing_times
    )):
        try:
            stochastic.append(caplet_price(n, df, fwd, k, vol, t, strip.accrual))
            if not math.isfinite(stochastic[-1]):
                raise ValueError(f"caplet value must be finite, got {stochastic[-1]!r}")
        except ValueError as exc:
            raise ValueError(f"period {j}: {exc}") from exc
        deterministic.append(caplet_price(n, df, fwd, k, 0.0, t, strip.accrual))
    return tuple(stochastic), sum(deterministic[1:])
