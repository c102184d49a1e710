"""Curve, discount-factor, forward-rate and volatility lookups."""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from protval.cap import CapSpec, cap_strip
from protval.config import ConfigError, load_curve, load_run_config, load_vols
from protval.curves import VolTermStructure, ZeroCurve

from .conftest import FIGURE_DISCOUNT_FACTORS, FIGURE_TENORS, FIGURE_VOLS, FIGURE_ZERO_RATES
from .test_cli import write_json, write_market_files


@st.composite
def curves(draw, monotone_rates: bool = False) -> ZeroCurve:
    n = draw(st.integers(min_value=2, max_value=8))
    steps = draw(st.lists(st.floats(0.25, 5.0), min_size=n, max_size=n))
    tenors = np.cumsum(steps)
    rates = draw(st.lists(st.floats(0.0001, 0.15), min_size=n, max_size=n))
    if monotone_rates:
        rates = sorted(rates)
    return ZeroCurve(tenors=tuple(tenors), zero_rates=tuple(rates))


class TestZeroCurve:
    def test_rejects_non_increasing_tenors(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            ZeroCurve(tenors=(0.0, 1.0, 1.0), zero_rates=(0.01, 0.02, 0.03))

    def test_rejects_negative_first_tenor(self):
        with pytest.raises(ValueError, match=">="):
            ZeroCurve(tenors=(-1.0, 1.0), zero_rates=(0.01, 0.02))

    def test_rejects_rates_at_or_below_minus_one(self):
        with pytest.raises(ValueError, match="> -1"):
            ZeroCurve(tenors=(1.0, 2.0), zero_rates=(0.01, -1.0))

    def test_nodes_are_reproduced_exactly(self, figure_curve):
        for tenor, rate in zip(FIGURE_TENORS, FIGURE_ZERO_RATES):
            assert figure_curve.zero_rates_at([tenor])[0] == rate

    def test_discount_factor_at_zero_is_one(self, figure_curve):
        assert figure_curve.discount_factors([0.0])[0] == 1.0

    def test_discount_factor_matches_quoted_one_year(self, figure_curve):
        # published value 0.973899494 comes from the unrounded 2.68% rate
        assert figure_curve.discount_factors([1.0])[0] == pytest.approx(0.973899494, abs=1e-4)

    def test_discount_factor_two_years_against_direct_compounding(self, figure_curve):
        oracle = 1.0279 ** -2  # 0.9464512908227984
        assert figure_curve.discount_factors([2.0])[0] == pytest.approx(oracle, abs=1e-12)
        assert figure_curve.discount_factors([2.0])[0] == pytest.approx(0.946366958, abs=1e-4)

    def test_discount_factor_row_within_display_rounding(self, figure_curve):
        # rates are displayed to 2 decimals, which moves the factors by up to ~1.4e-4
        for tenor, df in zip(FIGURE_TENORS, FIGURE_DISCOUNT_FACTORS):
            assert figure_curve.discount_factors([tenor])[0] == pytest.approx(df, abs=2e-4)

    def test_negative_tenor_rejected(self, figure_curve):
        with pytest.raises(ValueError, match=">= 0"):
            figure_curve.discount_factors([-0.5])

    def test_flat_extrapolation_beyond_last_node(self, figure_curve):
        assert figure_curve.zero_rates_at([30.0])[0] == FIGURE_ZERO_RATES[-1]

    @pytest.mark.parametrize(("rate", "tenor"), [(-0.99999999999999, 23.0), (1e12, 27.0), (1e200, 2.0)])
    def test_discount_factor_outside_the_float_range_rejected(self, rate, tenor):
        """(1 + z)^-t overflows (rate near -1) or underflows to 0 (huge rate); either is an error, not inf or 0."""
        curve = ZeroCurve(tenors=(0.0, 1.0), zero_rates=(rate, rate))
        message = f"discount factor at tenor {tenor:g} with zero rate {rate!r} is outside the float range"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            curve.discount_factors([tenor])

    @pytest.mark.parametrize(("rate", "year"), [(-0.99999999999999, 23), (-0.5, 1024)])
    def test_spread_discounts_raise_the_message_of_discount_factors(self, rate, year):
        """The first overflowing year of the numpy power raises the text the scalar ``**`` raises for that year."""
        curve = ZeroCurve(tenors=(0.0, 1.0), zero_rates=(rate, rate))
        with pytest.raises(ValueError) as scalar:
            curve.discount_factors([float(year)])
        with pytest.raises(ValueError) as vector:
            curve.spread_discounts(year + 5)
        assert str(vector.value) == str(scalar.value)
        assert str(vector.value).startswith(f"discount factor at tenor {year} with zero rate {rate!r} ")
        assert np.isfinite(curve.spread_discounts(year - 1)).all()

    def test_spread_discounts_let_an_underflow_pass_as_zero(self):
        curve = ZeroCurve(tenors=(0.0, 1.0), zero_rates=(1e200, 1e200))
        with pytest.raises(ValueError, match=r"^discount factor at tenor 2 with zero rate 1e\+200 is outside"):
            curve.discount_factors([2.0])
        factors = curve.spread_discounts(3)
        assert factors[0] > 0.0 and factors[1:].tolist() == [0.0, 0.0]

    # steeply inverted curves imply negative forwards and a locally rising
    # discount factor, so the monotonicity claim only holds away from them;
    # non-decreasing rate curves are always in the valid regime
    @given(curves(monotone_rates=True), st.floats(0.0, 40.0), st.floats(0.01, 40.0))
    def test_discount_factor_decreases_in_time(self, curve, t, dt):
        assert curve.discount_factors([t + dt])[0] < curve.discount_factors([t])[0]


class TestForwardIndexRate:
    def test_forward_from_today_is_spot_zero_rate(self, figure_curve):
        assert figure_curve.forward_index_rates([0.0], 3.0)[0] == pytest.approx(0.0291, rel=1e-12)

    def test_forward_matches_quoted_three_year_rate(self, figure_curve):
        # quoted 3.04% fixing one year out; cross-check from the published factors too
        assert figure_curve.forward_index_rates([1.0], 3.0)[0] == pytest.approx(0.0304, abs=5e-5)
        from_published = (0.973899494 / 0.890134519) ** (1.0 / 3.0) - 1.0
        assert from_published == pytest.approx(0.0304, abs=5e-5)

    def test_flat_curve_forward_equals_rate(self):
        curve = ZeroCurve(tenors=(1.0, 10.0), zero_rates=(0.03, 0.03))
        for fix in (0.0, 1.0, 2.5, 7.0, 20.0):
            assert curve.forward_index_rates([fix], 3.0)[0] == pytest.approx(0.03, rel=1e-12)

    @given(curves(), st.floats(0.0, 30.0), st.floats(0.25, 10.0))
    @settings(max_examples=200)
    def test_forward_compounding_identity(self, curve, fix, tenor):
        fwd = curve.forward_index_rates([fix], tenor)[0]
        lhs = (1.0 + fwd) ** tenor * curve.discount_factors([fix + tenor])[0]
        assert lhs == pytest.approx(curve.discount_factors([fix])[0], rel=1e-12)

    @pytest.mark.parametrize(
        ("rates", "fix", "tenor"),
        [((-0.99999999999999, 1e12), 5.0, 0.25), ((-0.99999999999999, 1e9), 14.0, 1.0)],
        ids=["power_overflows", "ratio_overflows"],
    )
    def test_forward_outside_the_float_range_rejected(self, rates, fix, tenor):
        """Each discount factor is in range, but the forward between them is not."""
        curve = ZeroCurve(tenors=(fix, fix + tenor), zero_rates=rates)
        message = f"forward rate fixing at {fix:g} for {tenor:g} years is outside the float range"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            curve.forward_index_rates([fix], tenor)


class TestVolTermStructure:
    def test_quoted_node_is_exact(self, figure_vols):
        assert figure_vols.vols_at([2.0])[0] == 0.17

    def test_linear_midpoint(self, figure_vols):
        assert figure_vols.vols_at([1.5])[0] == pytest.approx(0.168, rel=1e-12)

    def test_flat_beyond_last_node(self, figure_vols):
        assert figure_vols.vols_at([12.0])[0] == FIGURE_VOLS[-1]

    def test_empty_structure_is_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            VolTermStructure(fixing_times=(), black_vols=())

    def test_negative_vol_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            VolTermStructure(fixing_times=(1.0,), black_vols=(-0.1,))

    def test_zero_vol_allowed_for_deterministic_limit(self):
        flat = VolTermStructure(fixing_times=(1.0,), black_vols=(0.0,))
        assert flat.vols_at([5.0])[0] == 0.0



@st.composite
def vol_grids(draw) -> VolTermStructure:
    times = np.unique(np.cumsum(draw(st.lists(st.floats(0.0, 5.0), min_size=1, max_size=8))))
    vols = draw(st.lists(st.floats(0.0, 0.6), min_size=times.size, max_size=times.size))
    return VolTermStructure(fixing_times=tuple(times), black_vols=tuple(vols))


def scalar_zero_rate(curve: ZeroCurve, t: float) -> float:
    """Reference: one scalar ``np.interp`` call per tenor, as the lookups were made one period at a time."""
    return float(np.interp(t, curve.tenors, curve.zero_rates))


def scalar_discount_factor(curve: ZeroCurve, t: float) -> float:
    return 1.0 if t == 0.0 else (1.0 + scalar_zero_rate(curve, t)) ** -t


class TestVectorLookups:
    """A lookup of many times equals one scalar ``np.interp`` lookup per time, bit for bit."""

    @given(
        curve=curves(),
        vols=vol_grids(),
        periods=st.integers(2, 400),
        accrual=st.one_of(st.just(1.0), st.floats(0.05, 2.0)),
        tenor=st.one_of(st.just(3.0), st.floats(0.05, 10.0)),
        first_forward=st.one_of(st.none(), st.floats(0.001, 0.1)),
    )
    @settings(max_examples=150, deadline=None)
    def test_cap_strip_matches_scalar_lookups(self, curve, vols, periods, accrual, tenor, first_forward):
        spec = CapSpec((1.0,) * periods, (0.02,) * periods, tenor, accrual, first_forward)
        strip = cap_strip(spec, curve, vols)
        fixes = [max(j * accrual - accrual, 0.0) for j in range(periods)]
        forwards = [
            (scalar_discount_factor(curve, fix) / scalar_discount_factor(curve, fix + tenor)) ** (1.0 / tenor) - 1.0
            for fix in fixes
        ]
        if first_forward is not None:
            forwards[0] = first_forward
        assert strip.fixing_times == tuple(fixes)
        assert strip.discount_factors == tuple(scalar_discount_factor(curve, j * accrual) for j in range(periods))
        assert strip.forwards == tuple(forwards)
        assert strip.vols == tuple(float(np.interp(fix, vols.fixing_times, vols.black_vols)) for fix in fixes)

    @given(curve=curves(), vols=vol_grids(), times=st.lists(st.floats(0.0, 60.0), max_size=50))
    @settings(max_examples=150, deadline=None)
    def test_each_lookup_of_many_times_equals_its_lookups_of_one(self, curve, vols, times):
        assert curve.zero_rates_at(times) == [curve.zero_rates_at([t])[0] for t in times]
        assert curve.zero_rates_at(times) == [scalar_zero_rate(curve, t) for t in times]
        assert curve.discount_factors(times) == [curve.discount_factors([t])[0] for t in times]
        assert curve.forward_index_rates(times, 0.25) == [curve.forward_index_rates([t], 0.25)[0] for t in times]
        assert vols.vols_at(times) == [vols.vols_at([t])[0] for t in times]

    @pytest.mark.parametrize("periods", [2, 361])
    @pytest.mark.parametrize("first_forward", [None, 0.02])
    def test_cap_strip_makes_four_interpolations_whatever_the_period_count(self, monkeypatch, periods, first_forward):
        calls = []
        interp = np.interp
        monkeypatch.setattr(np, "interp", lambda *args: calls.append(1) or interp(*args))
        curve = ZeroCurve(tenors=FIGURE_TENORS, zero_rates=FIGURE_ZERO_RATES)
        vols = VolTermStructure(fixing_times=FIGURE_TENORS, black_vols=FIGURE_VOLS)
        cap_strip(CapSpec((1.0,) * periods, (0.02,) * periods, 3.0, 0.25, first_forward), curve, vols)
        assert len(calls) == 4

    def test_the_first_factor_out_of_range_is_named(self):
        curve = ZeroCurve(tenors=(0.0, 10.0, 20.0), zero_rates=(0.03, 1e200, 1e12))
        with pytest.raises(ValueError, match=r"^discount factor at tenor 10 with zero rate 1e\+200 is outside"):
            curve.discount_factors([1.0, 10.0, 20.0])
        with pytest.raises(ValueError, match=r"^fixing time must be >= 0, got -2$"):
            curve.forward_index_rates([1.0, -2, -3.0], 1.0)
        with pytest.raises(ValueError, match=r"^tenor must be >= 0, got -0.5$"):
            curve.zero_rates_at([0.0, -0.5])

def market_config(directory):
    return load_run_config(write_json(directory / "run.json", {
        "market": {"curve_csv": "curve.csv", "vols_csv": "vols.csv"}, "output_dir": "out",
    }))


class TestLoaders:
    def test_load_zero_curve_from_rows(self, tmp_path):
        (tmp_path / "curve.csv").write_text("tenor_years,zero_rate\n1,0.02\n2,0.03\n", encoding="utf-8")
        (tmp_path / "vols.csv").write_text("fixing_years,black_vol\n1,0.2\n", encoding="utf-8")
        curve = load_curve(market_config(tmp_path))
        assert curve.zero_rates_at([2.0])[0] == 0.03

    def test_load_empty_rows_rejected(self, tmp_path):
        for name, load in (("curve.csv", load_curve), ("vols.csv", load_vols)):
            write_market_files(tmp_path)
            path = tmp_path / name
            path.write_text(path.read_text(encoding="utf-8").splitlines()[0] + "\n", encoding="utf-8")
            with pytest.raises(ConfigError, match=f"{name}: no data rows"):
                load(market_config(tmp_path))
