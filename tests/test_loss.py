"""Loss-ratio model: scoring, lognormal parameters, seeded draws, reversion, histogram."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from protval.config import load_portfolio, load_weight_matrix
from protval.errors import ConfigError
from protval.loss import (
    BUCKETS,
    RATING_CRITERIA,
    age_bucket,
    draw_initial_ratios,
    histogram,
    lognormal_mu,
    lognormal_sigma,
    reverting_paths,
    standard_normals,
    volatility_score,
)

from .conftest import TABLE_MEAN_SIGMA, make_portfolio
from .test_cli import make_portfolio_file, write_json
from .test_projection import reference_reverting_paths

WEIGHTS_FILE = Path(__file__).resolve().parents[1] / "sample_inputs" / "weights_illustrative.json"


def uniform_weights(value: float = 1.0) -> dict[str, dict[str, float]]:
    return {criterion: dict.fromkeys(buckets, value) for criterion, buckets in BUCKETS.items()}


def all_moderate(age: float = 10.0) -> dict[str, str]:
    """The criterion -> bucket choices of a portfolio of the given age rated "moderate" on every risk."""
    return {"portfolio_age": age_bucket(age), **dict.fromkeys(RATING_CRITERIA, "moderate")}


def scored_portfolio_file(directory: Path, age: float = 10.0, **levels) -> Path:
    """A portfolio file with no sigma, scored by its ``criteria``: "moderate" on every risk unless given."""
    criteria = {"portfolio_age_years": age, **dict.fromkeys(RATING_CRITERIA, "moderate"), **levels}
    return make_portfolio_file(directory, sigma=None, criteria=criteria)


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
            bumped = uniform_weights(1.0)
            bumped[criterion][bucket] *= 1.5
            assert volatility_score(criteria, bumped) > base

    def test_shipped_illustrative_matrix_against_direct_product(self):
        raw = json.loads(WEIGHTS_FILE.read_text(encoding="utf-8"))
        expected = raw["portfolio_age"]["ge_4y"]
        for name in ("homogeneity", "technical_bases_quality", "concentration", "moral_hazard", "litigation"):
            expected *= raw[name]["moderate"]
        weights = load_weight_matrix(WEIGHTS_FILE)
        assert volatility_score(all_moderate(age=10.0), weights) == pytest.approx(expected, rel=1e-12)

    def test_age_buckets(self):
        assert age_bucket(0.0) == "lt_1y"
        assert age_bucket(0.5) == "lt_1y"
        assert age_bucket(1.0) == "lt_4y"
        assert age_bucket(3.0) == "lt_4y"
        assert age_bucket(4.0) == "ge_4y"

    def test_missing_cell_is_config_error(self, tmp_path):
        cells = uniform_weights()
        del cells["moral_hazard"]["weak"]
        path = write_json(tmp_path / "w.json", cells)
        with pytest.raises(ConfigError, match=r"w\.json: weight matrix is missing cell \('moral_hazard', 'weak'\)"):
            load_weight_matrix(path)

    @pytest.mark.parametrize("weight", [0.0, -0.5])
    def test_weight_not_above_zero_is_config_error(self, tmp_path, weight):
        cells = uniform_weights()
        cells["concentration"]["strong"] = weight
        path = write_json(tmp_path / "w.json", cells)
        with pytest.raises(ConfigError, match=r"w\.json: weight for \('concentration', 'strong'\) must be > 0"):
            load_weight_matrix(path)

    def test_invalid_rating_rejected(self, tmp_path):
        path = scored_portfolio_file(tmp_path, age=2.0, homogeneity="severe")
        with pytest.raises(ConfigError, match=r"p1\.json: criteria: homogeneity must be one of"):
            load_portfolio(path, 10, uniform_weights())


class TestLognormalParams:
    def test_published_parameter_pairs_from_sigma(self):
        # mu values follow from ln(mean) - sigma^2/2; displays round to -7%, -94%, -54%
        expected_mu = (-0.0693, -0.9383, -0.5446)
        for (mean, sigma), mu in zip(TABLE_MEAN_SIGMA, expected_mu):
            computed = lognormal_mu(mean, sigma)
            assert computed == pytest.approx(mu, abs=5e-5)
            assert math.exp(computed + 0.5 * sigma * sigma) == pytest.approx(mean, rel=1e-12)

    def test_first_portfolio_via_coefficient_of_variation(self):
        cv = math.sqrt(math.exp(0.19**2) - 1.0)
        sigma = lognormal_sigma(cv)
        assert sigma == pytest.approx(0.19, abs=1e-12)
        assert lognormal_mu(0.95, sigma) == pytest.approx(-0.069, abs=5e-4)

    def test_degenerate_point_mass(self):
        assert lognormal_sigma(0.0) == 0.0
        assert lognormal_mu(1.0, 0.0) == 0.0

    @given(mean=st.floats(0.01, 5.0), vol=st.floats(0.0, 3.0))
    @settings(max_examples=300)
    def test_round_trips(self, mean, vol):
        sigma = lognormal_sigma(vol)
        mu = lognormal_mu(mean, sigma)
        assert math.exp(mu + 0.5 * sigma * sigma) == pytest.approx(mean, rel=1e-12)
        assert math.sqrt(math.expm1(sigma * sigma)) == pytest.approx(vol, rel=1e-12, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="retained loss ratio must be > 0"):
            lognormal_mu(0.0, 0.2)
        with pytest.raises(ValueError, match="volatility must be >= 0"):
            lognormal_sigma(-0.1)
        with pytest.raises(ValueError, match="sigma must be >= 0"):
            lognormal_mu(0.8, -1.0)
        with pytest.raises(ValueError, match="implied mean .* must be finite"):
            lognormal_mu(0.8, 1e200)

    @pytest.mark.parametrize("sigma", [1e100, 1.35e154])
    def test_sigma_that_loses_the_mean_in_rounding_is_rejected(self, sigma):
        # mu = ln(0.8) - sigma^2/2 rounds to -sigma^2/2, so exp(mu + sigma^2/2) is exp(0) = 1, not 0.8.
        with pytest.raises(ValueError, match=r"must equal the retained loss ratio 0\.8 within a relative 1e-09, got 1\.0"):
            lognormal_mu(0.8, sigma)


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
        mu = lognormal_mu(0.8, 0.25)
        values = draw_initial_ratios(mu, 0.25, standard_normals(64, seed=42))
        z = np.random.Generator(np.random.Philox(42)).standard_normal(64)
        expected = np.exp(z * 0.25 + mu)
        assert np.array_equal(values, expected)

    def test_prefix_property(self):
        full = standard_normals(1000, seed=3)
        for k in (1, 7, 64, 999):
            assert np.array_equal(standard_normals(k, seed=3), full[:k])

    def test_zero_sigma_collapses_to_the_median(self):
        mu = lognormal_mu(0.8, 0.0)
        values = draw_initial_ratios(mu, 0.0, standard_normals(16, seed=1))
        assert values.shape == (16,)
        assert np.all(values == math.exp(mu))

    def test_same_seed_same_draws(self):
        a = standard_normals(256, seed=9)
        b = standard_normals(256, seed=9)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, standard_normals(256, seed=10))

    def test_law_of_large_numbers_recovers_the_mean(self):
        sigma = lognormal_sigma(0.25)
        values = draw_initial_ratios(lognormal_mu(0.80, sigma), sigma, standard_normals(100_000, seed=2024))
        se = values.std(ddof=1) / math.sqrt(values.size)
        assert abs(values.mean() - 0.80) < 3.0 * se

    def test_all_values_positive(self):
        sigma = lognormal_sigma(1.5)
        assert np.all(draw_initial_ratios(lognormal_mu(0.5, sigma), sigma, standard_normals(2000, seed=5)) > 0.0)


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


def scenarios_of(portfolio, n: int, seed: int) -> tuple[np.ndarray, int]:
    """``reverting_paths`` from the year-1 ratios of the portfolio's lognormal law and the draws for (n, seed)."""
    mu = lognormal_mu(portfolio.mean_sp, portfolio.sigma)
    sp1 = draw_initial_ratios(mu, portfolio.sigma, standard_normals(n, seed))
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

    def test_heavier_weights_widen_every_quantile_spread(self, tmp_path):
        path = scored_portfolio_file(tmp_path)
        light_weights = uniform_weights(0.2)
        heavy_weights = uniform_weights(0.2)
        heavy_weights["concentration"]["moderate"] *= 1.8

        light, _ = scenarios_of(load_portfolio(path, 5, light_weights), n=4000, seed=5)
        heavy, _ = scenarios_of(load_portfolio(path, 5, heavy_weights), n=4000, seed=5)
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

    def test_scored_portfolio_draws_like_a_direct_one_with_its_sigma(self, tmp_path):
        weights = load_weight_matrix(WEIGHTS_FILE)
        scored = load_portfolio(scored_portfolio_file(tmp_path), 6, weights)
        sigma = lognormal_sigma(volatility_score(all_moderate(), weights))
        assert scored.sigma == sigma
        direct = make_portfolio(mean_sp=0.8, sigma=sigma, horizon=6)
        assert scenarios_of(scored, n=500, seed=4)[0].tobytes() == scenarios_of(direct, n=500, seed=4)[0].tobytes()

    def test_missing_parameter_routes_are_config_errors(self, tmp_path):
        no_sigma = make_portfolio_file(tmp_path, "p1", sigma=None)
        with pytest.raises(ConfigError, match=r"p1\.json: missing field 'sigma' or 'criteria'"):
            load_portfolio(no_sigma, 10, uniform_weights())
        scored = scored_portfolio_file(tmp_path)
        with pytest.raises(ConfigError, match=r"p1\.json: field 'criteria' needs a weight matrix"):
            load_portfolio(scored, 10, None)


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
        sigma = lognormal_sigma(0.2)
        values = draw_initial_ratios(lognormal_mu(0.80, sigma), sigma, standard_normals(10_000, seed=99))
        bins = histogram(values, bin_width=0.1)
        modal_left = max(bins, key=lambda item: item[1])[0]
        assert 0.6 <= modal_left < 0.9

    def test_bad_width_rejected(self):
        with pytest.raises(ValueError, match="bin width"):
            histogram([1.0], 0.0)
