"""Loss-ratio model: scoring, lognormal parameters, seeded draws, reversion, histogram."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from protval.errors import ConfigError
from protval.loss import (
    LognormalParams,
    RiskCriteria,
    WeightMatrix,
    draw_initial_ratios,
    histogram,
    lognormal_params,
    lognormal_params_from_sigma,
    resolve_params,
    reverting_paths,
    standard_normals,
    volatility_score,
)

from .conftest import TABLE_MEAN_SIGMA, make_portfolio
from .test_projection import reference_reverting_paths

WEIGHTS_FILE = Path(__file__).resolve().parents[1] / "sample_inputs" / "weights_illustrative.json"


def uniform_weights(value: float = 1.0) -> WeightMatrix:
    cells = {"portfolio_age": {b: value for b in ("lt_1y", "lt_4y", "ge_4y")}}
    for name in ("homogeneity", "technical_bases_quality", "concentration", "moral_hazard", "litigation"):
        cells[name] = {b: value for b in ("strong", "moderate", "weak")}
    return WeightMatrix(cells=cells)


def all_moderate(age: float = 10.0) -> RiskCriteria:
    return RiskCriteria(
        portfolio_age=age,
        homogeneity="moderate",
        technical_bases_quality="moderate",
        concentration="moderate",
        moral_hazard="moderate",
        litigation="moderate",
    )


class TestVolatilityScore:
    def test_neutral_weights_score_one(self):
        assert volatility_score(all_moderate(), uniform_weights(1.0)) == 1.0

    def test_raising_any_cell_raises_the_score(self):
        criteria = all_moderate(age=10.0)
        base = volatility_score(criteria, uniform_weights(1.0))
        for criterion, bucket in [
            ("portfolio_age", "ge_4y"),
            ("homogeneity", "moderate"),
            ("technical_bases_quality", "moderate"),
            ("concentration", "moderate"),
            ("moral_hazard", "moderate"),
            ("litigation", "moderate"),
        ]:
            weights = uniform_weights(1.0)
            bumped = {c: dict(row) for c, row in weights.cells.items()}
            bumped[criterion][bucket] *= 1.5
            assert volatility_score(criteria, WeightMatrix(cells=bumped)) > base

    def test_shipped_illustrative_matrix_against_direct_product(self):
        raw = json.loads(WEIGHTS_FILE.read_text(encoding="utf-8"))
        expected = raw["portfolio_age"]["ge_4y"]
        for name in ("homogeneity", "technical_bases_quality", "concentration", "moral_hazard", "litigation"):
            expected *= raw[name]["moderate"]
        weights = WeightMatrix(
            cells={c: row for c, row in raw.items() if isinstance(row, dict)}
        )
        assert volatility_score(all_moderate(age=10.0), weights) == pytest.approx(expected, rel=1e-12)

    def test_age_buckets(self):
        assert all_moderate(age=0.5).age_bucket == "lt_1y"
        assert all_moderate(age=3.0).age_bucket == "lt_4y"
        assert all_moderate(age=4.0).age_bucket == "ge_4y"

    def test_missing_cell_is_config_error(self):
        cells = {c: dict(row) for c, row in uniform_weights().cells.items()}
        del cells["moral_hazard"]["weak"]
        with pytest.raises(ConfigError, match="moral_hazard"):
            WeightMatrix(cells=cells)

    def test_invalid_rating_rejected(self):
        with pytest.raises(ValueError, match="homogeneity"):
            RiskCriteria(
                portfolio_age=2.0,
                homogeneity="severe",
                technical_bases_quality="moderate",
                concentration="moderate",
                moral_hazard="moderate",
                litigation="moderate",
            )


class TestLognormalParams:
    def test_published_parameter_pairs_from_sigma(self):
        # mu values follow from ln(mean) - sigma^2/2; displays round to -7%, -94%, -54%
        expected_mu = (-0.0693, -0.9383, -0.5446)
        for (mean, sigma), mu in zip(TABLE_MEAN_SIGMA, expected_mu):
            params = lognormal_params_from_sigma(mean, sigma)
            assert params.mu == pytest.approx(mu, abs=5e-5)
            assert params.mean == pytest.approx(mean, rel=1e-12)

    def test_first_portfolio_via_coefficient_of_variation(self):
        cv = math.sqrt(math.exp(0.19**2) - 1.0)
        params = lognormal_params(0.95, cv)
        assert params.sigma == pytest.approx(0.19, abs=1e-12)
        assert params.mu == pytest.approx(-0.069, abs=5e-4)

    def test_degenerate_point_mass(self):
        params = lognormal_params(1.0, 0.0)
        assert params.mu == 0.0
        assert params.sigma == 0.0

    @given(mean=st.floats(0.01, 5.0), vol=st.floats(0.0, 3.0))
    @settings(max_examples=300)
    def test_round_trips(self, mean, vol):
        params = lognormal_params(mean, vol)
        assert params.mean == pytest.approx(mean, rel=1e-12)
        assert params.coefficient_of_variation == pytest.approx(vol, rel=1e-12, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="> 0"):
            lognormal_params(0.0, 0.2)
        with pytest.raises(ValueError, match=">= 0"):
            lognormal_params(0.8, -0.1)
        with pytest.raises(ValueError, match=">= 0"):
            LognormalParams(mu=0.0, sigma=-1.0)


class TestStandardNormals:
    def test_rejects_an_empty_draw(self):
        with pytest.raises(ValueError, match=">= 1"):
            standard_normals(0, seed=1)

    def test_standard_normal_moments(self):
        z = standard_normals(100_000, seed=2024)
        se = 1.0 / math.sqrt(z.size)
        assert abs(z.mean()) < 3.0 * se
        assert abs(z.std(ddof=1) - 1.0) < 3.0 * se


class TestDrawInitialRatios:
    def test_values_follow_the_quantile_transform_exactly(self):
        params = lognormal_params_from_sigma(0.8, 0.25)
        values = draw_initial_ratios(params, standard_normals(64, seed=42))
        z = np.random.Generator(np.random.Philox(42)).standard_normal(64)
        expected = np.exp(z * params.sigma + params.mu)
        assert np.array_equal(values, expected)

    def test_prefix_property(self):
        full = standard_normals(1000, seed=3)
        for k in (1, 7, 64, 999):
            assert np.array_equal(standard_normals(k, seed=3), full[:k])

    def test_zero_sigma_collapses_to_the_median(self):
        params = lognormal_params_from_sigma(0.8, 0.0)
        values = draw_initial_ratios(params, standard_normals(16, seed=1))
        assert values.shape == (16,)
        assert np.all(values == math.exp(params.mu))

    def test_same_seed_same_draws(self):
        a = standard_normals(256, seed=9)
        b = standard_normals(256, seed=9)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, standard_normals(256, seed=10))

    def test_law_of_large_numbers_recovers_the_mean(self):
        params = lognormal_params(0.80, 0.25)
        values = draw_initial_ratios(params, standard_normals(100_000, seed=2024))
        se = values.std(ddof=1) / math.sqrt(values.size)
        assert abs(values.mean() - 0.80) < 3.0 * se

    def test_all_values_positive(self):
        params = lognormal_params(0.5, 1.5)
        assert np.all(draw_initial_ratios(params, standard_normals(2000, seed=5)) > 0.0)


def one_path(sp1: float, chronicle, nu: float) -> np.ndarray:
    """``reverting_paths`` on the one-element array [sp1]: its only path."""
    return reverting_paths(np.array([sp1]), chronicle, nu)[0][0]


class TestMeanReversionPath:
    def test_flat_chronicle_worked_values(self):
        path = one_path(1.0, [0.8] * 5, nu=0.8)
        assert path[0] == 1.0
        assert path[1] == pytest.approx(0.96, abs=1e-12)
        assert path[2] == pytest.approx(0.928, abs=1e-12)
        assert path[3] == pytest.approx(0.9024, abs=1e-12)
        # the gap halves in about three years: 0.8^3 = 0.512
        assert (path[3] - 0.8) / (path[0] - 0.8) == pytest.approx(0.512, abs=1e-12)

    def test_zero_initial_gap_returns_the_chronicle(self):
        chronicle = [0.7, 0.75, 0.8, 0.85]
        path = one_path(0.7, chronicle, nu=0.8)
        assert np.array_equal(path, np.asarray(chronicle))

    def test_no_reversion_keeps_the_gap(self):
        path = one_path(1.1, [0.8] * 6, nu=1.0)
        assert np.all(path == pytest.approx(1.1, rel=1e-12))

    def test_gap_decays_with_ratio_nu(self):
        nu = 0.63
        chronicle = np.linspace(0.7, 1.0, 12)
        path = one_path(1.3, chronicle, nu=nu)
        gaps = path - chronicle
        for t in range(1, 11):
            assert gaps[t + 1] / gaps[t] == pytest.approx(nu, rel=1e-12)

    def test_negative_values_are_floored(self):
        path = one_path(0.05, [2.0, 0.01, 0.01], nu=1.0)
        assert np.all(path >= 0.0)
        assert path[1] == 0.0

    def test_paths_built_in_a_given_buffer_equal_fresh_ones(self):
        sp1 = np.array([0.05, 0.9, 1.6])
        chronicle = [2.0, 0.01, 0.5, 1.2]
        fresh, floored = reverting_paths(sp1, chronicle, 0.7)
        out = np.full((3, 4), np.nan)
        built, built_floored = reverting_paths(sp1, chronicle, 0.7, out=out)
        assert built is out
        assert built.tobytes() == fresh.tobytes()
        assert built_floored == floored > 0

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="non-empty"):
            one_path(1.0, [], nu=0.8)
        with pytest.raises(ValueError, match="reversion"):
            one_path(1.0, [0.8], nu=0.0)
        with pytest.raises(ValueError, match="reversion"):
            one_path(1.0, [0.8], nu=1.5)


def scenarios_of(portfolio, n: int, seed: int, weights: WeightMatrix | None = None) -> tuple[np.ndarray, int]:
    """``reverting_paths`` from the year-1 ratios of the portfolio's resolved parameters and the draws for (n, seed)."""
    sp1 = draw_initial_ratios(resolve_params(portfolio, weights), standard_normals(n, seed))
    return reverting_paths(sp1, portfolio.chronicle, portfolio.reversion_speed)


class TestGenerateScenarios:
    def test_single_degenerate_scenario_equals_the_chronicle(self):
        portfolio = make_portfolio(mean_sp=0.8, sigma=0.0, horizon=6)
        paths, _ = scenarios_of(portfolio, n=1, seed=0)
        assert paths.shape == (1, 6)
        assert np.allclose(paths[0], portfolio.chronicle, rtol=1e-14)

    def test_same_seed_identical_matrices(self):
        portfolio = make_portfolio()
        a, _ = scenarios_of(portfolio, n=300, seed=11)
        b, _ = scenarios_of(portfolio, n=300, seed=11)
        assert np.array_equal(a, b)

    def test_rows_match_the_single_path_operation(self):
        portfolio = make_portfolio(horizon=8)
        paths, _ = scenarios_of(portfolio, n=50, seed=21)
        chron = np.asarray(portfolio.chronicle)
        for i in range(50):
            expected = reference_reverting_paths(paths[i:i + 1, 0], chron, portfolio.reversion_speed)[0]
            assert np.allclose(paths[i], expected, rtol=1e-15)

    def test_higher_vol_widens_the_initial_quantile_span(self):
        low, _ = scenarios_of(make_portfolio(sigma=0.15), n=10_000, seed=77)
        high, _ = scenarios_of(make_portfolio(sigma=0.30), n=10_000, seed=77)
        lo_q = np.quantile(low[:, 0], [0.01, 0.99])
        hi_q = np.quantile(high[:, 0], [0.01, 0.99])
        assert hi_q[1] - hi_q[0] > lo_q[1] - lo_q[0]

    def test_heavier_weights_widen_every_quantile_spread(self):
        criteria = all_moderate(age=10.0)
        base_weights = uniform_weights(1.0)
        cells = {c: {b: w * 0.2 for b, w in row.items()} for c, row in base_weights.cells.items()}
        light = WeightMatrix(cells=cells)
        heavier_cells = {c: dict(row) for c, row in cells.items()}
        heavier_cells["concentration"]["moderate"] *= 1.8
        heavy = WeightMatrix(cells=heavier_cells)

        kwargs = dict(mean_sp=0.8, sigma=None, horizon=5)
        light, _ = scenarios_of(make_portfolio(criteria=criteria, **kwargs), n=4000, seed=5, weights=light)
        heavy, _ = scenarios_of(make_portfolio(criteria=criteria, **kwargs), n=4000, seed=5, weights=heavy)
        for p in (0.05, 0.10, 0.25):
            light_span = np.diff(np.quantile(light[:, 0], [p, 1.0 - p]))[0]
            heavy_span = np.diff(np.quantile(heavy[:, 0], [p, 1.0 - p]))[0]
            assert heavy_span >= light_span

    def test_paths_center_on_the_chronicle(self):
        portfolio = make_portfolio(mean_sp=0.8, sigma=0.25, horizon=10)
        paths, _ = scenarios_of(portfolio, n=20_000, seed=303)
        se = paths.std(axis=0, ddof=1) / math.sqrt(paths.shape[0])
        deviation = np.abs(paths.mean(axis=0) - np.asarray(portfolio.chronicle))
        assert np.all(deviation <= 3.0 * se)

    def test_floor_events_are_counted(self):
        portfolio = make_portfolio(
            mean_sp=2.0, sigma=0.9, chronicle=(2.0, 0.01, 0.01, 0.01), nu=1.0
        )
        paths, floored = scenarios_of(portfolio, n=2000, seed=8)
        assert floored > 0
        assert np.all(paths >= 0.0)

    def test_missing_parameter_routes_are_config_errors(self):
        no_sigma = make_portfolio(sigma=None)
        with pytest.raises(ConfigError, match="neither sigma nor risk criteria"):
            resolve_params(no_sigma)
        scored = make_portfolio(sigma=None, criteria=all_moderate())
        with pytest.raises(ConfigError, match="weight matrix"):
            resolve_params(scored)


class TestHistogram:
    def test_worked_example(self):
        bins = histogram([0.05, 0.15, 0.15], bin_width=0.1)
        assert bins == [(0.0, 1), (pytest.approx(0.1), 2)]

    def test_boundary_value_lands_in_its_own_bin(self):
        bins = dict(histogram([0.3], bin_width=0.1))
        occupied = [left for left, count in bins.items() if count]
        assert occupied == [pytest.approx(0.3)]

    @given(st.lists(st.floats(0.0, 5.0), min_size=1, max_size=200), st.floats(0.01, 1.0))
    @settings(max_examples=200)
    def test_counts_are_conserved(self, values, width):
        assert sum(c for _, c in histogram(values, width)) == len(values)

    def test_bins_start_at_zero_for_nonnegative_data(self):
        bins = histogram([0.55], bin_width=0.1)
        assert bins[0][0] == 0.0
        assert len(bins) == 6

    def test_modal_bin_of_a_moderate_vol_draw(self):
        # mean 0.80, CV 0.2: the density mode sits near 0.75, so the
        # 10%-bin histogram of 10^4 draws peaks inside [0.6, 0.9)
        params = lognormal_params(0.80, 0.2)
        values = draw_initial_ratios(params, standard_normals(10_000, seed=99))
        bins = histogram(values, bin_width=0.1)
        modal_left = max(bins, key=lambda item: item[1])[0]
        assert 0.6 <= modal_left < 0.9

    def test_bad_width_rejected(self):
        with pytest.raises(ValueError, match="bin width"):
            histogram([1.0], 0.0)
