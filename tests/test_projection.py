"""P&L projection: underwriting result, premium run-off and PVFP."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from protval.curves import ZeroCurve
from protval.projection import (
    _BLOCK_ROWS,
    FixedTerm,
    PortfolioSpec,
    TacitRenewal,
    _pvfp_rows,
    _spread_discounts,
    premium_runoff,
    pvfp,
    pvfp_of_ratios,
)

from .conftest import FIGURE_TENORS, FIGURE_ZERO_RATES, make_portfolio

FLAT_ZERO_CURVE = ZeroCurve(tenors=(0.0, 50.0), zero_rates=(0.0, 0.0))
FIGURE_CURVE = ZeroCurve(tenors=FIGURE_TENORS, zero_rates=FIGURE_ZERO_RATES)


def pvfp_rows(spec: PortfolioSpec, rows, curve: ZeroCurve, extra_spread: float = 0.0) -> np.ndarray:
    """The engine's PVFP of each row of a loss-ratio matrix (on a copy, since the engine works in place)."""
    discounts = _spread_discounts(curve, spec.horizon, extra_spread)
    return _pvfp_rows(spec, np.array(rows, dtype=float), premium_runoff(spec), discounts)


def reference_reverting_paths(sp1: np.ndarray, chron: np.ndarray, nu: float) -> np.ndarray:
    """Reference: the reverting paths out of place, floored at 0, in the operation order the golden digests pin."""
    paths = chron + (sp1[:, np.newaxis] - chron[0]) * nu ** np.arange(chron.size)
    paths[:, 0] = sp1
    return np.maximum(paths, 0.0)


def reference_pvfp_rows(spec: PortfolioSpec, paths: np.ndarray, curve: ZeroCurve) -> np.ndarray:
    """Reference: the PVFP of each row out of place, with the S/P < 1 mask taken from the paths."""
    results = np.subtract(1.0, paths)
    results *= premium_runoff(spec)
    np.multiply(results, 1.0 - spec.profit_share_rate, out=results, where=paths < 1.0)
    results *= 1.0 - spec.tax_rate
    results *= _spread_discounts(curve, spec.horizon, 0.0)
    return results.sum(axis=1)


def underwriting_result(premium: float, sp: float, profit_share: float) -> float:
    """Reference: the insurer's annual result for one premium and loss ratio.

    Positive results (sp < 1) are shared at the contractual rate; negative
    results are borne in full, so the function is continuous at sp = 1 but
    kinked: slope -premium*(1-share) below breakeven, -premium above.
    """
    result = premium * (1.0 - sp)
    if sp < 1.0:
        result *= 1.0 - profit_share
    return result


def one_year_result(premium: float, sp: float, profit_share: float) -> float:
    """The engine's underwriting result: a one-year PVFP, untaxed and undiscounted."""
    spec = make_portfolio(premium=premium, profit_share=profit_share, tax=0.0, horizon=1)
    return pvfp(spec, [sp], FLAT_ZERO_CURVE)


def reference_terms(spec: PortfolioSpec, path, curve: ZeroCurve, extra_spread: float) -> list[float]:
    """Plain-Python PVFP terms, one per projection year."""
    terms = []
    for t, sp in enumerate(path, start=1):
        if isinstance(spec.renewal, TacitRenewal):
            premium = spec.initial_premium * (1.0 - spec.renewal.lapse_rate) ** (t - 1)
        else:
            years = math.ceil(spec.renewal.mean_remaining_term_months / 12.0)
            premium = spec.initial_premium * max(1.0 - (t - 1) / years, 0.0)
        discount = (1.0 + curve.zero_rate(t) + extra_spread) ** -t
        result = underwriting_result(premium, sp, spec.profit_share_rate)
        terms.append(result * (1.0 - spec.tax_rate) * discount)
    return terms


class TestUnderwritingResult:
    def test_loss_fully_borne(self):
        assert one_year_result(100.0, 2.0, 0.5) == -100.0

    def test_profit_shared(self):
        assert one_year_result(100.0, 0.10, 0.5) == pytest.approx(45.0, rel=1e-12)

    def test_breakeven_is_zero_for_any_share(self):
        for share in (0.0, 0.3, 1.0):
            assert one_year_result(100.0, 1.0, share) == 0.0

    @given(share=st.floats(0.0, 1.0))
    @settings(max_examples=200)
    def test_continuity_at_breakeven(self, share):
        eps = 1e-9
        assert abs(one_year_result(100.0, 1.0 - eps, share)) < 1e-6
        assert abs(one_year_result(100.0, 1.0 + eps, share)) < 1e-6

    @given(sp=st.floats(0.0, 0.99), share=st.floats(0.0, 1.0))
    @settings(max_examples=200)
    def test_profit_branch_slope(self, sp, share):
        lhs = one_year_result(100.0, sp, share)
        assert lhs == pytest.approx(100.0 * (1.0 - sp) * (1.0 - share), rel=1e-12, abs=1e-12)
        assert lhs == underwriting_result(100.0, sp, share)

    @given(gap=st.floats(0.01, 1.0))
    @settings(max_examples=200)
    def test_symmetry_without_sharing(self, gap):
        assert one_year_result(100.0, 1.0 - gap, 0.0) == pytest.approx(
            -one_year_result(100.0, 1.0 + gap, 0.0), rel=1e-12
        )

    @given(gap=st.floats(0.01, 1.0), share=st.floats(0.05, 0.95))
    @settings(max_examples=200)
    def test_sharing_flattens_the_profit_branch(self, gap, share):
        profit = one_year_result(100.0, 1.0 - gap, share)
        loss = one_year_result(100.0, 1.0 + gap, share)
        assert profit == pytest.approx((1.0 - share) * abs(loss), rel=1e-12)
        assert profit < abs(loss)

    def test_two_point_asymmetry(self):
        # E[result] over {0.5, 1.5} is (25 - 50)/2 = -12.5, while the result
        # at the mean ratio (1.0) is 0: sharing destroys expected value
        results = [one_year_result(100.0, sp, 0.5) for sp in (0.5, 1.5)]
        assert sum(results) / 2 == pytest.approx(-12.5)
        assert sum(results) / 2 < one_year_result(100.0, 1.0, 0.5)

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="premium"):
            one_year_result(-1.0, 0.5, 0.5)
        with pytest.raises(ValueError, match="loss ratio"):
            one_year_result(100.0, -0.5, 0.5)
        with pytest.raises(ValueError, match="profit share"):
            one_year_result(100.0, 0.5, 1.5)


class TestPremiumRunoff:
    def test_tacit_renewal_decays_geometrically(self):
        spec = make_portfolio(premium=100.0, lapse=0.20, horizon=3)
        assert np.allclose(premium_runoff(spec), [100.0, 80.0, 64.0], rtol=1e-12)

    def test_zero_lapse_is_constant(self):
        spec = make_portfolio(premium=100.0, lapse=0.0, horizon=4)
        assert np.all(premium_runoff(spec) == 100.0)

    def test_fixed_term_amortizes_linearly(self):
        spec = PortfolioSpec(
            id="ft",
            initial_premium=100.0,
            chronicle=(0.8,) * 5,
            renewal=FixedTerm(mean_remaining_term_months=24),
            profit_share_rate=0.0,
            tax_rate=0.0,
            mean_sp=0.8,
            sigma=0.2,
        )
        assert np.allclose(premium_runoff(spec), [100.0, 50.0, 0.0, 0.0, 0.0], rtol=1e-12)

    def test_runoff_is_nonincreasing_and_nonnegative(self):
        spec = PortfolioSpec(
            id="ft",
            initial_premium=100.0,
            chronicle=(0.8,) * 25,
            renewal=FixedTerm(mean_remaining_term_months=200),
            profit_share_rate=0.0,
            tax_rate=0.0,
            mean_sp=0.8,
            sigma=0.2,
        )
        runoff = premium_runoff(spec)
        assert np.all(runoff >= 0.0)
        assert np.all(np.diff(runoff) <= 0.0)


class TestPvfp:
    def test_breakeven_path_is_worthless(self, figure_curve):
        spec = make_portfolio(horizon=5)
        assert pvfp(spec, [1.0] * 5, figure_curve) == 0.0

    def test_single_period_hand_arithmetic(self):
        spec = make_portfolio(mean_sp=0.8, profit_share=0.0, tax=0.0, horizon=1)
        assert pvfp(spec, [0.8], FLAT_ZERO_CURVE) == pytest.approx(20.0, rel=1e-12)

    def test_spread_discounting_lowers_positive_results(self, figure_curve):
        spec = make_portfolio(mean_sp=0.8, horizon=10)
        at_tsr = pvfp(spec, spec.chronicle, figure_curve)
        spreaded = pvfp(spec, spec.chronicle, figure_curve, extra_spread=0.01)
        assert at_tsr > 0.0
        assert spreaded < at_tsr

    def test_linear_in_premiums(self, figure_curve):
        path = [0.7, 0.9, 1.2, 0.8, 0.95]
        small = pvfp(make_portfolio(premium=100.0, horizon=5), path, figure_curve)
        large = pvfp(make_portfolio(premium=200.0, horizon=5), path, figure_curve)
        assert large == pytest.approx(2.0 * small, rel=1e-12)

    def test_tax_scales_the_result(self, figure_curve):
        path = [0.7] * 5
        untaxed = pvfp(make_portfolio(tax=0.0, horizon=5), path, figure_curve)
        taxed = pvfp(make_portfolio(tax=0.275, horizon=5), path, figure_curve)
        assert taxed == pytest.approx(untaxed * 0.725, rel=1e-12)

    def test_horizon_mismatch_rejected(self, figure_curve):
        with pytest.raises(ValueError, match="horizon"):
            pvfp(make_portfolio(horizon=5), [0.8] * 4, figure_curve)

    def test_negative_spread_rejected(self, figure_curve):
        with pytest.raises(ValueError, match="spread"):
            pvfp(make_portfolio(horizon=5), [0.8] * 5, figure_curve, extra_spread=-0.01)


class TestPvfpBatch:
    def test_chronicle_scenario_reproduces_deterministic_value(self, figure_curve):
        spec = make_portfolio(horizon=6)
        samples = pvfp_rows(spec, [spec.chronicle], figure_curve)
        assert samples.shape == (1,)
        assert samples[0] == pvfp(spec, spec.chronicle, figure_curve)

    def test_duplicate_rows_give_identical_samples(self, figure_curve):
        spec = make_portfolio(horizon=4)
        row = [0.7, 0.9, 1.1, 0.85]
        samples = pvfp_rows(spec, [row, row, row], figure_curve)
        assert samples.shape == (3,)
        assert samples[0] == samples[1] == samples[2]

    def test_two_point_distribution_shows_the_pvfp_asymmetry(self):
        # symmetric loss-ratio scenarios around breakeven, but shared
        # profits: the sample-mean PVFP falls below the central-path PVFP
        spec = make_portfolio(mean_sp=1.0, profit_share=0.5, horizon=3)
        rows = [[0.5] * 3, [1.5] * 3]
        samples = pvfp_rows(spec, rows, FLAT_ZERO_CURVE)
        mean_pvfp = samples.sum() / 2
        central = pvfp(spec, spec.chronicle, FLAT_ZERO_CURVE)
        assert mean_pvfp < central
        assert central == 0.0

    @given(
        data=st.data(),
        horizon=st.integers(1, 12),
        n=st.integers(1, 6),
        fixed_term=st.booleans(),
        share=st.floats(0.0, 1.0),
        tax=st.floats(0.0, 0.5),
        extra_spread=st.floats(0.0, 0.05),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_plain_python_reference_row_by_row(
        self, data, horizon, n, fixed_term, share, tax, extra_spread
    ):
        renewal = (
            FixedTerm(mean_remaining_term_months=data.draw(st.floats(1.0, 240.0)))
            if fixed_term
            else TacitRenewal(lapse_rate=data.draw(st.floats(0.0, 0.3)))
        )
        spec = PortfolioSpec(
            id="prop",
            initial_premium=data.draw(st.floats(1.0, 1e6)),
            chronicle=(0.9,) * horizon,
            renewal=renewal,
            profit_share_rate=share,
            tax_rate=tax,
            mean_sp=0.9,
            sigma=0.2,
        )
        # loss ratios on both sides of breakeven, breakeven itself included
        ratio = st.one_of(st.floats(0.0, 2.5), st.just(1.0))
        row = st.lists(ratio, min_size=horizon, max_size=horizon)
        rows = data.draw(st.lists(row, min_size=n, max_size=n))
        samples = pvfp_rows(spec, rows, FIGURE_CURVE, extra_spread)
        assert samples.shape == (n,)
        for path, value in zip(rows, samples):
            terms = reference_terms(spec, path, FIGURE_CURVE, extra_spread)
            scale = math.fsum(abs(v) for v in terms)
            assert abs(value - math.fsum(terms)) <= 1e-12 * scale
            assert value == pvfp(spec, path, FIGURE_CURVE, extra_spread)


def same_bits(a, b) -> bool:
    """Equal as float64 bit patterns, so 0.0 and -0.0 differ."""
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


# Loss ratios at and next to the profit-share kink, and the floor.
KINKS = (0.0, float(np.nextafter(1.0, 0.0)), 1.0, float(np.nextafter(1.0, 2.0)))


class TestPvfpOfRatios:
    # sp1 = 0 against a chronicle that starts at 1.5 and drops to 0.1 floors
    # year 2; the ratios drawn on [0, 3] cross S/P = 1 in every year. Rows
    # whose sp1 is the chronicle's first value follow the chronicle exactly,
    # so a chronicle holding KINKS puts those values in later years.
    @given(
        n=st.sampled_from([1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 3]),
        seed=st.integers(0, 2**32 - 1),
        chronicle=st.lists(
            st.one_of(st.floats(0.05, 2.0), st.sampled_from(KINKS[1:])), min_size=1, max_size=12
        ),
        nu=st.floats(0.05, 1.0),
        fixed_term=st.booleans(),
        renewal_level=st.floats(0.0, 1.0),
        share=st.floats(0.0, 1.0),
        tax=st.floats(0.0, 0.5),
    )
    @example(n=2 * _BLOCK_ROWS + 3, seed=0, chronicle=[1.5, 0.1, 0.9, 1.2], nu=0.8,
             fixed_term=False, renewal_level=0.5, share=0.5, tax=0.275)
    @example(n=2 * _BLOCK_ROWS + 3, seed=1, chronicle=[1.5, 0.1, 0.9, 1.2], nu=0.8,
             fixed_term=True, renewal_level=0.1, share=0.5, tax=0.275)
    @example(n=_BLOCK_ROWS + 1, seed=2, chronicle=[1.0, KINKS[1], KINKS[3], 1.0, 0.05], nu=0.5,
             fixed_term=True, renewal_level=0.05, share=0.3, tax=0.275)
    @settings(max_examples=40, deadline=None)
    def test_equals_the_full_matrix_bit_for_bit(
        self, n, seed, chronicle, nu, fixed_term, renewal_level, share, tax
    ):
        renewal = (
            FixedTerm(mean_remaining_term_months=1.0 + 239.0 * renewal_level)
            if fixed_term
            else TacitRenewal(lapse_rate=0.3 * renewal_level)
        )
        spec = PortfolioSpec(
            id="prop",
            initial_premium=1e5,
            chronicle=tuple(chronicle),
            renewal=renewal,
            profit_share_rate=share,
            tax_rate=tax,
            mean_sp=chronicle[0],
            sigma=0.2,
            reversion_speed=nu,
        )
        sp1 = np.random.default_rng(seed).uniform(0.0, 3.0, n)
        for offset, value in enumerate(KINKS + (chronicle[0],)):
            sp1[offset * 2::11] = value
        paths = reference_reverting_paths(sp1, np.asarray(spec.chronicle), nu)
        expected = reference_pvfp_rows(spec, paths, FIGURE_CURVE)
        assert same_bits(pvfp_of_ratios(spec, sp1, FIGURE_CURVE), expected)
        for i in [*range(min(n, 22)), n - 1]:
            assert same_bits(pvfp(spec, paths[i], FIGURE_CURVE), expected[i])


class TestPortfolioSpecValidation:
    def test_rejects_empty_chronicle(self):
        with pytest.raises(ValueError, match="chronicle"):
            make_portfolio(chronicle=())

    def test_rejects_nonpositive_chronicle_values(self):
        with pytest.raises(ValueError, match="chronicle"):
            make_portfolio(chronicle=(0.8, 0.0))

    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError, match="lapse"):
            TacitRenewal(lapse_rate=1.0)
        with pytest.raises(ValueError, match="remaining term"):
            FixedTerm(mean_remaining_term_months=0.0)
        with pytest.raises(ValueError, match="profit share"):
            make_portfolio(profit_share=1.5)
