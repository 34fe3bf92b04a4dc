"""Exact-percentile oracle tests for the latency recorder.

The recorder promises *exact* nearest-rank percentiles; this suite pins
the arithmetic against an independent sorted-list oracle (including the
n=1, all-ties, and small-n p99 edges hypothesis loves to bend), and
pins the serving determinism contract: two identical serving sessions
record identical counters -- wall-derived figures live in gauges only.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import SharedAuctionEngine
from repro.errors import InvalidAuctionError
from repro.instrument import MetricsCollector, names
from repro.serving import (
    LatencyRecorder,
    ServingEngine,
    TrafficGenerator,
    nearest_rank_percentile,
)
from repro.workloads.generator import MarketConfig, generate_market


def oracle(samples, p):
    """Straight-from-the-definition nearest-rank oracle."""
    ordered = sorted(samples)
    return ordered[math.ceil(p / 100.0 * len(ordered)) - 1]


class TestNearestRank:
    def test_single_sample_is_every_percentile(self):
        for p in (0.5, 50.0, 99.0, 100.0):
            assert nearest_rank_percentile([0.125], p) == 0.125

    def test_p99_of_two_samples_is_the_larger(self):
        assert nearest_rank_percentile([1.0, 2.0], 99.0) == 2.0

    def test_p50_of_two_samples_is_the_smaller(self):
        # ceil(0.5 * 2) = 1 -> first element; nearest-rank, not midpoint.
        assert nearest_rank_percentile([1.0, 2.0], 50.0) == 1.0

    def test_all_ties(self):
        assert nearest_rank_percentile([3.0] * 7, 50.0) == 3.0
        assert nearest_rank_percentile([3.0] * 7, 99.0) == 3.0

    def test_p100_is_the_maximum(self):
        assert nearest_rank_percentile([1.0, 5.0, 2.0][:2] + [9.0], 100.0) == 9.0

    def test_small_n_p99_hits_last_element(self):
        # For n < 100, ceil(.99 n) == n: p99 is the max until the
        # sample count crosses 100.
        for n in (1, 2, 10, 99):
            samples = [float(i) for i in range(n)]
            assert nearest_rank_percentile(samples, 99.0) == float(n - 1)
        samples = [float(i) for i in range(101)]
        assert nearest_rank_percentile(samples, 99.0) == 99.0

    @given(
        samples=st.lists(
            st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=300
        ),
        p=st.floats(min_value=0.001, max_value=100.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_oracle(self, samples, p):
        assert nearest_rank_percentile(sorted(samples), p) == oracle(samples, p)

    @given(
        samples=st.lists(
            st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=100
        ),
        p=st.floats(min_value=0.001, max_value=100.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_result_is_an_actual_sample(self, samples, p):
        assert nearest_rank_percentile(sorted(samples), p) in samples

    def test_rejects_empty_and_bad_p(self):
        with pytest.raises(InvalidAuctionError, match="no samples"):
            nearest_rank_percentile([], 50.0)
        for p in (0.0, -1.0, 100.5):
            with pytest.raises(InvalidAuctionError, match="percentile"):
                nearest_rank_percentile([1.0], p)


class TestRecorder:
    def test_summary_matches_oracle(self):
        recorder = LatencyRecorder()
        samples = [0.004, 0.001, 0.009, 0.001, 0.030, 0.002]
        for sample in samples:
            recorder.record(sample)
        summary = recorder.summary()
        assert summary.count == 6
        assert summary.total_seconds == pytest.approx(sum(samples))
        assert summary.p50_seconds == oracle(samples, 50.0)
        assert summary.p99_seconds == oracle(samples, 99.0)
        assert summary.qps == pytest.approx(6 / sum(samples))

    def test_percentile_delegates_exactly(self):
        recorder = LatencyRecorder()
        for sample in (5.0, 1.0, 3.0):
            recorder.record(sample)
        assert recorder.percentile(50.0) == oracle([5.0, 1.0, 3.0], 50.0)

    def test_empty_summary_is_zeros(self):
        summary = LatencyRecorder().summary()
        assert (summary.count, summary.total_seconds, summary.qps) == (0, 0.0, 0.0)

    def test_zero_cost_samples_give_zero_qps_not_crash(self):
        recorder = LatencyRecorder()
        recorder.record(0.0)
        assert recorder.summary().qps == 0.0

    def test_rejects_negative_sample(self):
        with pytest.raises(InvalidAuctionError, match="non-negative"):
            LatencyRecorder().record(-0.001)

    def test_recorder_stays_usable_after_summary(self):
        recorder = LatencyRecorder()
        recorder.record(1.0)
        first = recorder.summary()
        recorder.record(3.0)
        second = recorder.summary()
        assert first.count == 1 and second.count == 2
        assert second.p99_seconds == 3.0


def run_serving_session(seed=11, queries=40):
    market = generate_market(
        MarketConfig(
            num_categories=2,
            phrases_per_category=3,
            specialists_per_category=5,
            generalists=3,
            median_budget_cents=1500,
            seed=seed,
        )
    )
    engine = SharedAuctionEngine(
        market.advertisers,
        slot_factors=[0.3, 0.2],
        search_rates=market.search_rates,
        mode="shared",
        layout="columnar",
        exec_cache=True,
        seed=seed,
        collector=MetricsCollector(),
    )
    traffic = TrafficGenerator.from_search_rates(
        market.search_rates, rate_qps=100.0, seed=seed
    )
    loop = ServingEngine(engine, traffic)
    return loop.run(queries)


class TestServingCounterDeterminism:
    def test_identical_sessions_record_identical_counters(self):
        first = run_serving_session()
        second = run_serving_session()
        assert first.counters is not None
        assert first.counters == second.counters
        assert first.counters[names.SERVE_QUERIES] == 40
        assert first.counters[names.ENGINE_ROUNDS] == 40

    def test_wall_derived_metrics_are_gauges_not_counters(self):
        report = run_serving_session(queries=10)
        for metric in (names.SERVE_P50_MS, names.SERVE_P99_MS, names.SERVE_QPS):
            assert metric not in report.counters
