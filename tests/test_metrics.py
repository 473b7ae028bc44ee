"""Resilience-loss arithmetic, quantiles, and statistical helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import ndtri

from stormgrid.engine import (
    RECORD_DTYPE,
    MonteCarloConfig,
    ReplicationResult,
    run_monte_carlo,
)
from stormgrid.errors import UndefinedImprovementError
from stormgrid.metrics import (
    ResilienceSummary,
    full_restoration_hour,
    improvement_pct,
    normal_ci_halfwidth,
    resilience_loss,
    restoration_quantiles,
)
from stormgrid.restoration import Strategy

from .oracles import bootstrap_mean_ci


def series(values):
    """An hourly Q column from hour 0."""
    return np.array(values, dtype=float)


class TestResilienceLoss:
    def test_perfect_quality_zero_loss(self):
        assert resilience_loss(series([1.0])) == 0.0
        assert resilience_loss(series([1.0, 1.0, 1.0])) == 0.0

    def test_hand_sum(self):
        s = series([0.0, 0.5, 0.75, 1.0])
        assert resilience_loss(s) == pytest.approx(1.75)

    def test_total_blackout_equals_horizon(self):
        values = [0.0] * 174 + [1.0]
        s = series(values)
        assert resilience_loss(s) == pytest.approx(174.0)

    def test_loss_bounded_by_horizon(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(2, 60))
            vals = np.sort(rng.uniform(0, 1, n))
            vals[-1] = 1.0
            s = series(list(vals))
            loss = resilience_loss(s)
            assert 0.0 <= loss <= full_restoration_hour(s) + 1e-9

    def test_pointwise_improvement_never_increases_loss(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            base = np.sort(rng.uniform(0, 1, n))
            base[-1] = 1.0
            lifted = np.minimum(base + rng.uniform(0, 0.3, n), 1.0)
            lifted[-1] = 1.0
            assert resilience_loss(series(list(lifted))) <= resilience_loss(
                series(list(base))
            ) + 1e-12


class TestImprovement:
    def test_published_arithmetic(self):
        assert improvement_pct(53.16, 58.18) == pytest.approx(8.6, abs=0.05)
        assert improvement_pct(45.07, 58.18) == pytest.approx(22.5, abs=0.05)

    def test_equal_inputs_zero(self):
        assert improvement_pct(10.0, 10.0) == 0.0

    def test_zero_baseline_undefined(self):
        with pytest.raises(UndefinedImprovementError):
            improvement_pct(1.0, 0.0)


class TestQuantiles:
    def test_all_levels_zero_for_perfect(self):
        q = restoration_quantiles(series([1.0]))
        assert q == {0.75: 0, 0.90: 0, 1.0: 0}

    def test_first_crossing(self):
        q = restoration_quantiles(series([0.0, 0.8, 0.95, 1.0]))
        assert q == {0.75: 1, 0.90: 2, 1.0: 3}

    def test_nondecreasing_in_level(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(2, 60))
            vals = np.sort(rng.uniform(0, 1, n))
            vals[-1] = 1.0
            q = restoration_quantiles(series(list(vals)))
            assert q[0.75] <= q[0.90] <= q[1.0]

    def test_offset_t0(self):
        # the position in the column is the hour; hours are plain ints for JSON
        hours = restoration_quantiles(series([0.0] * 5 + [1.0]))
        assert hours == {0.75: 5, 0.90: 5, 1.0: 5}
        assert all(type(h) is int for h in hours.values())

    def test_never_reached_raises(self):
        s = series([0.5, 0.6])
        with pytest.raises(ValueError):
            restoration_quantiles(s, (1.0,))


class TestQualitySeries:
    def test_time_average(self):
        # the stopping rule's statistic is the mean of the household column
        records = np.array(
            [(h, q, 1.0, 0, 0, 0, 0) for h, q in enumerate([1.0, 0.5, 0.0])],
            dtype=RECORD_DTYPE,
        ).view(np.recarray)
        rep = ReplicationResult(
            seed=0, strategy=Strategy.COMPONENT_BASED, records=records,
            events=[], initial_failures=[],
        )
        cfg = MonteCarloConfig(min_replications=2, max_replications=2)
        out = run_monte_carlo(cfg, lambda seed: rep)
        assert out.statistics.tolist() == [pytest.approx(0.5)] * 2


class TestSummary:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            ResilienceSummary(
                trl=200.0,
                mpr=100.0,
                trl_over_mpr_pct=200.0,
                restoration_hours={0.75: 1, 0.9: 2, 1.0: 3},
                lights_restoration_hours_100=3,
            )
        with pytest.raises(ValueError):
            ResilienceSummary(
                trl=10.0,
                mpr=100.0,
                trl_over_mpr_pct=10.0,
                restoration_hours={0.75: 5, 0.9: 2, 1.0: 3},
                lights_restoration_hours_100=3,
            )

    def test_valid_summary(self):
        s = ResilienceSummary(
            trl=58.18,
            mpr=174.0,
            trl_over_mpr_pct=33.4,
            restoration_hours={0.75: 92, 0.9: 140, 1.0: 174},
            lights_restoration_hours_100=165,
        )
        assert s.trl < s.mpr


class TestStatHelpers:
    def test_halfwidth_shrinks_with_n(self):
        rng = np.random.default_rng(8)
        small = normal_ci_halfwidth(rng.normal(0, 1, 20), 0.90)
        large = normal_ci_halfwidth(rng.normal(0, 1, 2000), 0.90)
        assert large < small

    def test_halfwidth_zero_variance(self):
        assert normal_ci_halfwidth(np.ones(10), 0.90) == 0.0

    @settings(max_examples=500, deadline=None)
    @given(
        confidence=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        values=st.lists(
            st.floats(-1e6, 1e6, allow_nan=False), min_size=2, max_size=30
        ),
    )
    def test_halfwidth_quantile_equals_norm_ppf(self, confidence, values):
        # the half-width takes its normal quantile from ndtri; it must equal
        # scipy.stats.norm.ppf bit for bit so stopping decisions stay unchanged
        p = 0.5 + confidence / 2.0
        assert ndtri(p) == stats.norm.ppf(p)
        values = np.array(values)
        expected = stats.norm.ppf(p) * values.std(ddof=1) / np.sqrt(len(values))
        # equal_nan: at p == 1 both sides are inf * 0 on constant values
        np.testing.assert_equal(normal_ci_halfwidth(values, confidence), expected)

    def test_bootstrap_brackets_true_mean(self):
        rng = np.random.default_rng(9)
        hits = 0
        for trial in range(100):
            x = rng.normal(3.0, 1.0, 40)
            lo, hi = bootstrap_mean_ci(x, 0.95, n_boot=2000, seed=trial)
            hits += lo <= 3.0 <= hi
        assert hits >= 85

    def test_bootstrap_deterministic_given_seed(self):
        x = np.arange(20, dtype=float)
        assert bootstrap_mean_ci(x, seed=7) == bootstrap_mean_ci(x, seed=7)
