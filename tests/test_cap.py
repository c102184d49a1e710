"""Black-76 caplet and cap-strip pricing."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from protval.cap import (
    CapSpec,
    CapValuation,
    cap_strip,
    caplet_price,
    norm_cdf,
    price_cap,
)
from protval.curves import VolTermStructure, ZeroCurve

from .conftest import (
    FIGURE_BOOKED_FLOWS_PV,
    FIGURE_CAPLET_COSTS,
    FIGURE_DETERMINISTIC_COST,
    FIGURE_TAX_RATE,
)

# High-precision reference for the normal CDF at the 97.5% quantile point,
# computed with 30-digit arithmetic.
NCDF_AT_1959964 = 0.9750000009035576


def flat_strike_spec(strike: float, notionals: tuple[float, ...], first_forward: float | None = None) -> CapSpec:
    """A cap on the 3-year index with the same strike in every period."""
    return CapSpec(notionals, (strike,) * len(notionals), index_tenor=3.0, first_forward=first_forward)


def monte_carlo_caplet(
    notional: float,
    df_pay: float,
    fwd: float,
    strike: float,
    vol: float,
    t_fix: float,
    accrual: float,
    n_draws: int,
    seed: int,
) -> tuple[float, float]:
    """Risk-neutral simulation oracle: lognormal forward, discounted payoff.

    Returns (value, standard error). Independent of the closed form on
    purpose: it prices by brute force from the model's own dynamics.
    """
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(n_draws)
    terminal = fwd * np.exp(vol * math.sqrt(t_fix) * z - 0.5 * vol * vol * t_fix)
    payoff = notional * accrual * df_pay * np.maximum(terminal - strike, 0.0)
    return float(payoff.mean()), float(payoff.std(ddof=1) / math.sqrt(n_draws))


class TestNormCdf:
    def test_symmetry_point(self):
        assert norm_cdf(0.0) == 0.5

    def test_ninety_seven_point_five(self):
        assert norm_cdf(1.959964) == pytest.approx(NCDF_AT_1959964, abs=1e-12)
        assert norm_cdf(1.959964) == pytest.approx(0.975, abs=1e-8)

    def test_reflection_identity(self):
        for x in np.linspace(-8.0, 8.0, 101):
            assert norm_cdf(-x) == pytest.approx(1.0 - norm_cdf(x), abs=1e-12)

    def test_tail_saturation(self):
        assert norm_cdf(-40.0) == 0.0
        assert norm_cdf(40.0) == 1.0


class TestCapletPrice:
    def test_zero_vol_is_discounted_intrinsic(self):
        value = caplet_price(1e6, 0.95, 0.03, 0.02, 0.0, 2.0)
        assert value == pytest.approx(9_500.0, rel=1e-12)

    def test_zero_fixing_time_is_discounted_intrinsic(self):
        value = caplet_price(1e6, 0.95, 0.03, 0.02, 0.25, 0.0)
        assert value == pytest.approx(9_500.0, rel=1e-12)
        assert caplet_price(1e6, 0.95, 0.015, 0.02, 0.25, 0.0) == 0.0

    def test_at_the_money_forward_closed_form(self):
        # with F = E the Black formula collapses to N*d*B*F*(2*cdf(vol*sqrt(T)/2) - 1)
        vol, t_fix = 0.20, 2.0
        value = caplet_price(1e6, 0.95, 0.03, 0.03, vol, t_fix)
        expected = 1e6 * 0.95 * 0.03 * (2.0 * norm_cdf(vol * math.sqrt(t_fix) / 2.0) - 1.0)
        assert value == pytest.approx(expected, rel=1e-12)

    def test_against_monte_carlo_oracle(self):
        value = caplet_price(1e6, 0.95, 0.03, 0.02, 0.20, 2.0)
        mc_value, mc_se = monte_carlo_caplet(1e6, 0.95, 0.03, 0.02, 0.20, 2.0, 1.0, 10**6, seed=7)
        assert abs(value - mc_value) < 3.0 * mc_se

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="forward"):
            caplet_price(1e6, 0.95, -0.01, 0.02, 0.2, 1.0)

    @given(
        fwd=st.floats(0.001, 0.15),
        strike=st.floats(0.001, 0.15),
        vol=st.floats(0.0, 1.0),
        t_fix=st.floats(0.0, 30.0),
    )
    @settings(max_examples=300)
    def test_value_at_least_discounted_intrinsic(self, fwd, strike, vol, t_fix):
        value = caplet_price(1e6, 0.9, fwd, strike, vol, t_fix)
        intrinsic = 1e6 * 0.9 * max(fwd - strike, 0.0)
        assert value >= intrinsic - 1e-9
        sd = vol * math.sqrt(t_fix)
        if sd == 0.0:
            assert value == pytest.approx(intrinsic, abs=1e-9)
            return
        # strict positivity of the time value is only float-visible for a
        # non-degenerate stdev and unsaturated tails (|d| below ~5)
        d = (math.log(fwd / strike) + 0.5 * vol * vol * t_fix) / sd
        if sd >= 0.01 and abs(d) <= 5.0 and abs(d - sd) <= 5.0:
            assert value > intrinsic

    @given(
        fwd=st.floats(0.005, 0.10),
        strike=st.floats(0.005, 0.10),
        vol=st.floats(0.01, 0.8),
        t_fix=st.floats(0.1, 20.0),
        bump=st.floats(1e-4, 0.05),
    )
    @settings(max_examples=300)
    def test_monotonicity(self, fwd, strike, vol, t_fix, bump):
        # up to float rounding; vega can sit below double precision deep ITM
        base = caplet_price(1.0, 0.9, fwd, strike, vol, t_fix)
        assert caplet_price(1.0, 0.9, fwd, strike, vol + bump, t_fix) >= base - 1e-12
        assert caplet_price(1.0, 0.9, fwd + bump, strike, vol, t_fix) >= base - 1e-12
        assert caplet_price(1.0, 0.9, fwd, strike + bump, vol, t_fix) <= base + 1e-12


class TestPriceCap:
    @staticmethod
    def flat_market(rate: float, vol: float) -> tuple[ZeroCurve, VolTermStructure]:
        return (
            ZeroCurve(tenors=(0.0, 50.0), zero_rates=(rate, rate)),
            VolTermStructure(fixing_times=(0.0, 50.0), black_vols=(vol, vol)),
        )

    def test_zero_vol_out_of_the_money_prices_to_zero(self):
        market = self.flat_market(rate=0.02, vol=0.0)
        spec = flat_strike_spec(0.05, (1e6,) * 5)
        valuation = CapValuation(*price_cap(cap_strip(spec, *market)))
        assert valuation.stochastic_value == 0.0
        assert valuation.deterministic_value == 0.0
        assert all(v == 0.0 for v in valuation.caplet_values)

    def test_zero_vol_market_has_no_valuation_spread(self):
        market = self.flat_market(rate=0.04, vol=0.0)
        spec = flat_strike_spec(0.02, (1e6,) * 5)
        valuation = CapValuation(*price_cap(cap_strip(spec, *market)))
        assert valuation.stochastic_value > 0.0
        assert valuation.valuation_spread == 0.0

    def test_aggregate_identities_hold_exactly(self):
        market = self.flat_market(rate=0.03, vol=0.25)
        spec = flat_strike_spec(0.025, (5e5, 4e5, 3e5, 2e5, 1e5))
        valuation = CapValuation(*price_cap(cap_strip(spec, *market)))
        assert valuation.stochastic_value == sum(valuation.caplet_values[1:])
        assert valuation.valuation_spread == valuation.stochastic_value - valuation.deterministic_value

    def test_period_zero_is_excluded_from_the_option_value(self):
        market = self.flat_market(rate=0.06, vol=0.2)
        with_p0 = flat_strike_spec(0.02, (1e9, 1e5, 1e5))
        without_p0 = flat_strike_spec(0.02, (0.0, 1e5, 1e5))
        assert CapValuation(*price_cap(cap_strip(with_p0, *market))).stochastic_value == pytest.approx(
            CapValuation(*price_cap(cap_strip(without_p0, *market))).stochastic_value
        )
        assert price_cap(cap_strip(with_p0, *market))[0][0] > 0.0

    def test_spot_override_applies_to_the_running_period_only(self):
        market = self.flat_market(rate=0.04, vol=0.2)
        spec = flat_strike_spec(0.02, (1e6, 1e6, 1e6), first_forward=0.10)
        plain = flat_strike_spec(0.02, (1e6, 1e6, 1e6))
        with_spot, _ = price_cap(cap_strip(spec, *market))
        without_spot, _ = price_cap(cap_strip(plain, *market))
        # period 0 picks up the observed 10% spot; the period-1 caplet also
        # fixes at t=0 but stays on the curve-implied rate
        assert with_spot[0] == pytest.approx(1e6 * (0.10 - 0.02), rel=1e-12)
        assert with_spot[1] == without_spot[1]
        assert with_spot[2] == without_spot[2]

    def test_per_period_strike_override(self):
        market = self.flat_market(rate=0.04, vol=0.2)
        flat = flat_strike_spec(0.02, (1e6, 1e6, 1e6))
        bumped = CapSpec(notionals=(1e6, 1e6, 1e6), strikes=(0.02, 0.02, 0.03), index_tenor=3.0)
        bumped_values, _ = price_cap(cap_strip(bumped, *market))
        flat_values, _ = price_cap(cap_strip(flat, *market))
        assert bumped_values[2] < flat_values[2]
        assert bumped_values[1] == flat_values[1]

    def test_caplet_outside_the_float_range_rejected_naming_the_period(self):
        # the period-0 forward is about 1e12, so a 1e300 notional overflows its caplet value
        curve = ZeroCurve(tenors=(35.0, 44.0, 49.0), zero_rates=(1e12, 1e200, 0.03))
        vols = VolTermStructure(fixing_times=(0.0,), black_vols=(0.0,))
        spec = CapSpec(notionals=(1e300,) * 3, strikes=(1e-300,) * 3, index_tenor=0.25)
        with pytest.raises(ValueError, match="^period 0: caplet value must be finite, got inf$"):
            price_cap(cap_strip(spec, curve, vols))


class TestReportAggregates:
    def test_published_aggregates_from_caplet_costs(self):
        valuation = CapValuation(
            FIGURE_CAPLET_COSTS,
            deterministic_value=FIGURE_DETERMINISTIC_COST,
            booked_flows_pv=FIGURE_BOOKED_FLOWS_PV,
            tax_rate=FIGURE_TAX_RATE,
        )
        assert valuation.stochastic_value == pytest.approx(-6_671.48, abs=0.01)
        # the full seven-period sum differs from the option value by the fixed period
        assert sum(FIGURE_CAPLET_COSTS) == pytest.approx(-6_824.96, abs=0.01)
        assert valuation.valuation_spread == pytest.approx(-1_403.45, abs=0.01)
        assert valuation.crd == pytest.approx(-4_142.12, abs=0.01)

    def test_fully_booked_option_costs_nothing(self):
        valuation = CapValuation((0.0, 100.0), deterministic_value=50.0, booked_flows_pv=100.0, tax_rate=0.3)
        assert valuation.crd == 0.0

    def test_zero_tax_zero_booked_passes_through(self):
        valuation = CapValuation((0.0, 100.0), deterministic_value=50.0)
        assert valuation.crd == valuation.stochastic_value

    @pytest.mark.parametrize(
        ("caplets", "deterministic", "booked", "aggregate"),
        [
            ((0.0, -1.7e308, -1.7e308), 0.0, 0.0, "stochastic_value must be finite, got -inf"),
            ((0.0, 1e308), -1e308, 0.0, "valuation_spread must be finite, got inf"),
            ((0.0, 1e308), 0.0, -1e308, "crd must be finite, got inf"),
        ],
    )
    def test_aggregate_outside_the_float_range_rejected(self, caplets, deterministic, booked, aggregate):
        with pytest.raises(ValueError, match=f"^{aggregate}$"):
            CapValuation(caplets, deterministic, booked)

    @given(
        caplets=st.lists(st.floats(-1e9, 1e9), min_size=2, max_size=12),
        deterministic=st.floats(-1e9, 1e9),
        booked=st.floats(-1e9, 1e9),
        tax_rate=st.floats(0.0, 0.99),
    )
    @settings(max_examples=200, deadline=None)
    def test_aggregates_follow_the_caplets(self, caplets, deterministic, booked, tax_rate):
        """The aggregates are computed from the stored inputs, so no valuation can disagree with its caplets."""
        valuation = CapValuation(caplets, deterministic, booked, tax_rate)
        stochastic = sum(caplets[1:])
        assert valuation.caplet_values == tuple(caplets)
        assert valuation.stochastic_value == stochastic
        assert valuation.valuation_spread == stochastic - deterministic
        assert valuation.crd == (stochastic - booked) * (1.0 - tax_rate)
        for aggregate in ("stochastic_value", "valuation_spread", "crd"):
            with pytest.raises(TypeError, match=aggregate):
                CapValuation(caplets, deterministic, **{aggregate: 0.0})


class TestCapSpecValidation:
    def test_needs_at_least_one_priced_period(self):
        with pytest.raises(ValueError, match="0..n"):
            flat_strike_spec(0.02, (1e6,))

    def test_rejects_negative_notionals(self):
        with pytest.raises(ValueError, match="notionals"):
            flat_strike_spec(0.02, (1e6, -1.0))

    def test_rejects_short_strike_vector(self):
        with pytest.raises(ValueError, match="strikes"):
            CapSpec(notionals=(1e6, 1e6), strikes=(0.02,), index_tenor=3.0)

    @pytest.mark.parametrize(
        ("field", "value", "message"),
        [
            ("strikes", (0.02, 0.0), "strikes must be > 0, got 0.0"),
            ("strikes", (-0.01, -0.5), "strikes must be > 0, got -0.01"),
            ("accrual", 0.0, "accrual_years must be > 0, got 0.0"),
            ("accrual", -0.25, "accrual_years must be > 0, got -0.25"),
            ("index_tenor", 0.0, "index_tenor_years must be > 0, got 0.0"),
            ("index_tenor", -3.0, "index_tenor_years must be > 0, got -3.0"),
        ],
    )
    def test_rejects_non_positive_strike_accrual_or_index_tenor(self, field, value, message):
        """The spec owns these rules; the curve and the pricer take them as checked."""
        fields = {"notionals": (1e6, 1e6), "strikes": (0.02, 0.02), "index_tenor": 3.0, field: value}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            CapSpec(**fields)
