"""Spread calibration, PVFP statistics and the underwriting-risk cost."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from protval.risk import (
    CalibrationError,
    PvfpStatistics,
    SpreadFunction,
    aggregate,
    calibrate_spread,
    pvfp_stats,
)

from .conftest import SPREAD_CALIBRATION_POINTS, TABLE_PVFP_ROWS


@pytest.fixture(scope="module")
def calibrated() -> SpreadFunction:
    return calibrate_spread(SPREAD_CALIBRATION_POINTS)


class TestPvfpStats:
    def test_constant_samples(self):
        assert pvfp_stats([10.0, 10.0, 10.0]) == (10.0, 0.0)

    def test_two_samples_hand_arithmetic(self):
        mean, vol = pvfp_stats([0.0, 2.0])
        assert mean == 1.0
        assert vol == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_requires_two_samples(self):
        with pytest.raises(ValueError, match="at least 2"):
            pvfp_stats([1.0])

    def test_seed_stability_of_lognormal_samples(self):
        # statistics of a 10^4-sample lognormal population move by well
        # under 1% between independent seeds
        stats = []
        for seed in (1, 2, 3):
            rng = np.random.default_rng(seed)
            mean, vol = pvfp_stats(rng.lognormal(10.0, 0.05, size=10_000))
            stats.append((mean, vol))
        means = [m for m, _ in stats]
        vols = [v for _, v in stats]
        assert (max(means) - min(means)) / min(means) < 0.01
        assert (max(vols) - min(vols)) / min(vols) < 0.05


class TestCalibrateSpread:
    def test_published_fit(self, calibrated):
        assert calibrated.a == pytest.approx(0.0208, abs=1e-4)
        assert calibrated.b == pytest.approx(16.188, abs=0.01)

    def test_anchored_at_the_origin(self, calibrated):
        assert calibrated.spread_for(0.0) == 0.0

    def test_reproduces_the_calibration_points(self, calibrated):
        for rel_vol, spread in SPREAD_CALIBRATION_POINTS:
            assert calibrated.spread_for(rel_vol) == pytest.approx(spread, abs=1e-10)

    @given(a=st.floats(0.001, 0.2), b=st.floats(0.5, 500.0))
    @settings(max_examples=100)
    def test_round_trip_recovers_parameters(self, a, b):
        fn = SpreadFunction(a=a, b=b)
        points = [(0.08, fn.spread_for(0.08)), (0.25, fn.spread_for(0.25))]
        recovered = calibrate_spread(points)
        assert recovered.a == pytest.approx(a, abs=1e-8, rel=1e-8)
        assert recovered.b == pytest.approx(b, abs=1e-8, rel=1e-8)

    def test_coincident_points_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            calibrate_spread([(0.1, 0.02), (0.1, 0.02)])

    def test_proportional_points_cannot_bracket(self):
        # spread exactly proportional to vol has no strictly concave log fit
        with pytest.raises(CalibrationError, match="sign"):
            calibrate_spread([(0.1, 0.01), (0.2, 0.02)])

    def test_wrong_point_count_rejected(self):
        with pytest.raises(ValueError, match="two calibration points"):
            calibrate_spread([(0.1, 0.02)])

    def test_nonpositive_coordinates_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            calibrate_spread([(0.0, 0.02), (0.2, 0.03)])


class TestSpreadFor:
    def test_published_relative_volatility_rows(self, calibrated):
        # Vol[PVFP]/E[PVFP] per portfolio against the displayed 0.11/0.57/1.35%
        expected = (0.0011, 0.0057, 0.0135)
        for (mean, vol, _, _), target in zip(TABLE_PVFP_ROWS, expected):
            assert calibrated.spread_for(vol / mean) == pytest.approx(target, abs=1e-4)

    def test_strictly_increasing_and_concave(self, calibrated):
        grid = np.linspace(0.0, 0.6, 200)
        values = np.array([calibrated.spread_for(v) for v in grid])
        first_diff = np.diff(values)
        assert np.all(first_diff > 0.0)
        assert np.all(np.diff(first_diff) < 0.0)

    def test_rejects_negative_volatility(self, calibrated):
        with pytest.raises(ValueError, match=">= 0"):
            calibrated.spread_for(-0.1)

    def test_parameter_bounds(self):
        with pytest.raises(ValueError, match="a must"):
            SpreadFunction(a=0.0, b=1.0)
        with pytest.raises(ValueError, match="b must"):
            SpreadFunction(a=1.0, b=0.0)


class TestUnderwritingRiskCost:
    def test_published_rows(self, calibrated):
        expected = (3_482.0, 1_409.0, 45_600.0)
        for (mean, vol, pvfp_tsr, pvfp_spread), target in zip(TABLE_PVFP_ROWS, expected):
            stats = PvfpStatistics(mean, vol, calibrated.spread_for(vol / mean), pvfp_tsr, pvfp_spread)
            assert stats.cur == pytest.approx(target, abs=1.0)

    def test_no_spread_no_cost_in_the_restricted_case(self):
        assert PvfpStatistics(100.0, 0.0, 0.0, 100.0, 100.0).cur == 0.0

    def test_degenerate_portfolio_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            PvfpStatistics(10.0, 1.0, 0.01, 0.0, 5.0)


class TestRiskStatistics:
    def test_assembles_the_report_row(self, calibrated):
        mean, vol, pvfp_tsr, pvfp_spread = TABLE_PVFP_ROWS[0]
        stats = PvfpStatistics(mean, vol, calibrated.spread_for(vol / mean), pvfp_tsr, pvfp_spread)
        assert stats.cur == pvfp_tsr - mean * (pvfp_spread / pvfp_tsr)

    def test_nonpositive_mean_rejected(self):
        with pytest.raises(ValueError, match="mean PVFP"):
            PvfpStatistics(0.0, 1.0, 0.01, 10.0, 9.0)

    @pytest.mark.parametrize("field", ["mean", "vol", "spread", "pvfp_tsr", "pvfp_spread"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_field_rejected(self, field, bad):
        values = dict(mean=10.0, vol=1.0, spread=0.01, pvfp_tsr=10.0, pvfp_spread=9.0)
        values[field] = bad
        with pytest.raises(ValueError, match=f"^{field} must be finite, got {bad!r}$"):
            PvfpStatistics(**values)


class TestAggregate:
    @staticmethod
    def rows(calibrated) -> list[PvfpStatistics]:
        return [
            PvfpStatistics(mean, vol, calibrated.spread_for(vol / mean), pvfp_tsr, pvfp_spread)
            for mean, vol, pvfp_tsr, pvfp_spread in TABLE_PVFP_ROWS
        ]

    def test_published_totals(self, calibrated):
        total_pvfp, total_cur = aggregate(self.rows(calibrated))
        assert total_pvfp == pytest.approx(2_058_828.0, abs=1.0)
        # the published total is the sum of the rounded per-portfolio rows
        rounded = [round(r.cur) for r in self.rows(calibrated)]
        assert sum(rounded) == 50_491
        assert total_cur == pytest.approx(50_491.0, abs=2.0)

    def test_permutation_invariant_and_additive(self, calibrated):
        rows = self.rows(calibrated)
        forward = aggregate(rows)
        backward = aggregate(list(reversed(rows)))
        assert forward == pytest.approx(backward, rel=1e-12)
        split = (
            aggregate(rows[:1])[0] + aggregate(rows[1:])[0],
            aggregate(rows[:1])[1] + aggregate(rows[1:])[1],
        )
        assert forward == pytest.approx(split, rel=1e-12)

    def test_single_report_is_the_identity(self, calibrated):
        row = self.rows(calibrated)[0]
        assert aggregate([row]) == (row.pvfp_tsr, row.cur)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            aggregate([])
