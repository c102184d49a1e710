"""Curve, discount-factor, forward-rate and volatility lookups."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
            assert figure_curve.zero_rate(tenor) == rate

    def test_discount_factor_at_zero_is_one(self, figure_curve):
        assert figure_curve.discount_factor(0.0) == 1.0

    def test_discount_factor_matches_quoted_one_year(self, figure_curve):
        # published value 0.973899494 comes from the unrounded 2.68% rate
        assert figure_curve.discount_factor(1.0) == pytest.approx(0.973899494, abs=1e-4)

    def test_discount_factor_two_years_against_direct_compounding(self, figure_curve):
        oracle = 1.0279 ** -2  # 0.9464512908227984
        assert figure_curve.discount_factor(2.0) == pytest.approx(oracle, abs=1e-12)
        assert figure_curve.discount_factor(2.0) == pytest.approx(0.946366958, abs=1e-4)

    def test_discount_factor_row_within_display_rounding(self, figure_curve):
        # rates are displayed to 2 decimals, which moves the factors by up to ~1.4e-4
        for tenor, df in zip(FIGURE_TENORS, FIGURE_DISCOUNT_FACTORS):
            assert figure_curve.discount_factor(tenor) == pytest.approx(df, abs=2e-4)

    def test_negative_tenor_rejected(self, figure_curve):
        with pytest.raises(ValueError, match=">= 0"):
            figure_curve.discount_factor(-0.5)

    def test_flat_extrapolation_beyond_last_node(self, figure_curve):
        assert figure_curve.zero_rate(30.0) == FIGURE_ZERO_RATES[-1]

    # steeply inverted curves imply negative forwards and a locally rising
    # discount factor, so the monotonicity claim only holds away from them;
    # non-decreasing rate curves are always in the valid regime
    @given(curves(monotone_rates=True), st.floats(0.0, 40.0), st.floats(0.01, 40.0))
    def test_discount_factor_decreases_in_time(self, curve, t, dt):
        assert curve.discount_factor(t + dt) < curve.discount_factor(t)


class TestForwardIndexRate:
    def test_forward_from_today_is_spot_zero_rate(self, figure_curve):
        assert figure_curve.forward_index_rate(0.0, 3.0) == pytest.approx(0.0291, rel=1e-12)

    def test_forward_matches_quoted_three_year_rate(self, figure_curve):
        # quoted 3.04% fixing one year out; cross-check from the published factors too
        assert figure_curve.forward_index_rate(1.0, 3.0) == pytest.approx(0.0304, abs=5e-5)
        from_published = (0.973899494 / 0.890134519) ** (1.0 / 3.0) - 1.0
        assert from_published == pytest.approx(0.0304, abs=5e-5)

    def test_flat_curve_forward_equals_rate(self):
        curve = ZeroCurve(tenors=(1.0, 10.0), zero_rates=(0.03, 0.03))
        for fix in (0.0, 1.0, 2.5, 7.0, 20.0):
            assert curve.forward_index_rate(fix, 3.0) == pytest.approx(0.03, rel=1e-12)

    @given(curves(), st.floats(0.0, 30.0), st.floats(0.25, 10.0))
    @settings(max_examples=200)
    def test_forward_compounding_identity(self, curve, fix, tenor):
        fwd = curve.forward_index_rate(fix, tenor)
        lhs = (1.0 + fwd) ** tenor * curve.discount_factor(fix + tenor)
        assert lhs == pytest.approx(curve.discount_factor(fix), rel=1e-12)

    def test_non_positive_tenor_rejected(self, figure_curve):
        with pytest.raises(ValueError, match="> 0"):
            figure_curve.forward_index_rate(1.0, 0.0)


class TestVolTermStructure:
    def test_quoted_node_is_exact(self, figure_vols):
        assert figure_vols.vol_at(2.0) == 0.17

    def test_linear_midpoint(self, figure_vols):
        assert figure_vols.vol_at(1.5) == pytest.approx(0.168, rel=1e-12)

    def test_flat_beyond_last_node(self, figure_vols):
        assert figure_vols.vol_at(12.0) == FIGURE_VOLS[-1]

    def test_empty_structure_is_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            VolTermStructure(fixing_times=(), black_vols=())

    def test_negative_vol_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            VolTermStructure(fixing_times=(1.0,), black_vols=(-0.1,))

    def test_zero_vol_allowed_for_deterministic_limit(self):
        flat = VolTermStructure(fixing_times=(1.0,), black_vols=(0.0,))
        assert flat.vol_at(5.0) == 0.0


def market_config(directory):
    return load_run_config(write_json(directory / "run.json", {
        "market": {"curve_csv": "curve.csv", "vols_csv": "vols.csv"}, "output_dir": "out",
    }))


class TestLoaders:
    def test_load_zero_curve_from_rows(self, tmp_path):
        (tmp_path / "curve.csv").write_text("tenor_years,zero_rate\n1,0.02\n2,0.03\n", encoding="utf-8")
        (tmp_path / "vols.csv").write_text("fixing_years,black_vol\n1,0.2\n", encoding="utf-8")
        curve = load_curve(market_config(tmp_path))
        assert curve.zero_rate(2.0) == 0.03

    def test_load_empty_rows_rejected(self, tmp_path):
        for name, load in (("curve.csv", load_curve), ("vols.csv", load_vols)):
            write_market_files(tmp_path)
            path = tmp_path / name
            path.write_text(path.read_text(encoding="utf-8").splitlines()[0] + "\n", encoding="utf-8")
            with pytest.raises(ConfigError, match=f"{name}: no data rows"):
                load(market_config(tmp_path))
