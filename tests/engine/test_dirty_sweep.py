"""Autotuner policy under a controlled dirty-fraction sweep.

Drives the bus-connected :class:`CrossRoundPlanExecutor` with nested
dirty sets covering 1% to 100% of a 100-advertiser population and pins
the :class:`~repro.engine.autotune.CacheAutotuner` contract:

- the bypass decision is *monotone* in the dirty fraction (nested dirty
  sets mean a higher fraction's windowed mean dominates a lower one's
  round for round);
- a calm market (1% dirty) never bypasses, a fully dirty one always
  does once warmed up;
- cached work never exceeds uncached work -- the only cost the bus adds
  is its own event traffic, which is measured and linear in the dirty
  declarations, not in plan size;
- answers are byte-identical to a fresh executor at every fraction,
  bypassed rounds included;
- LRU auto-sizing converges on the observed working set and moves only
  outside the hysteresis band.
"""

from __future__ import annotations

import random

import pytest

from repro.engine.autotune import CacheAutotuner
from repro.engine.changefeed import BidChanged, ChangeFeed
from repro.engine.pipeline import SharedAuctionEngine
from repro.errors import InvalidAuctionError
from repro.instrument import MetricsCollector, names
from repro.plans.executor import CrossRoundPlanExecutor, PlanExecutor
from repro.plans.greedy_planner import greedy_shared_plan
from repro.plans.instance import AggregateQuery, SharedAggregationInstance
from repro.workloads.generator import MarketConfig, generate_market

POPULATION = 100
ROUNDS = 20
FRACTIONS = (0.01, 0.05, 0.10, 0.25, 0.50, 0.75, 1.00)


def sweep_instance():
    """Eight overlapping queries over the 100-advertiser population."""
    rng = random.Random(0)
    queries = []
    for index in range(8):
        members = rng.sample(range(POPULATION), 25)
        queries.append(AggregateQuery(f"q{index}", set(members), 1.0))
    return SharedAggregationInstance(queries)


def run_sweep_point(fraction, collector=None, autotune=True):
    """One sweep point: ROUNDS rounds at a fixed nested dirty fraction.

    The dirty set of round ``r`` is the first ``ceil(fraction * N)``
    advertisers of one fixed permutation, so a higher fraction's dirty
    set is a strict superset of a lower one's in every round -- the
    nesting that makes the monotonicity assertion meaningful.

    Returns:
        ``(autotuner, feed, cached_collector, uncached_collector)``.
    """
    instance = sweep_instance()
    plan = greedy_shared_plan(instance, pair_strategy="cover")
    order = list(range(POPULATION))
    random.Random(1).shuffle(order)
    dirty_count = max(1, int(round(fraction * POPULATION)))

    feed = ChangeFeed()
    # warmup=3 so the unavoidable all-dirty first round (first sight of
    # every score) cannot tip a calm market into bypassing on its own.
    autotuner = (
        CacheAutotuner(warmup=3, collector=collector or MetricsCollector())
        if autotune
        else None
    )
    cached_collector = collector or MetricsCollector()
    uncached_collector = MetricsCollector()
    cached = CrossRoundPlanExecutor(
        plan, 3, cached_collector, autotuner=autotuner
    )
    cached.connect(feed)
    uncached = PlanExecutor(plan, 3, uncached_collector)

    scores = {v: float((v * 37) % 53 + 1) for v in range(POPULATION)}
    for round_index in range(ROUNDS):
        if round_index:
            for v in order[:dirty_count]:
                scores[v] = scores[v] + 1.0 + (v % 5)
                feed.publish(BidChanged(v))
        a = cached.run_round(dict(scores))
        b = uncached.run_round(dict(scores))
        assert a.answers == b.answers, (
            f"divergence at fraction {fraction} round {round_index}"
        )
    return autotuner, feed, cached_collector, uncached_collector


class TestDirtyFractionSweep:
    @pytest.mark.parametrize("fraction", FRACTIONS)
    def test_cached_work_never_exceeds_uncached(self, fraction):
        autotuner, feed, cached, uncached = run_sweep_point(fraction)
        assert cached.counter(names.PLAN_NODES) <= uncached.counter(
            names.PLAN_NODES
        )
        assert cached.counter(names.PLAN_MERGES) <= uncached.counter(
            names.PLAN_MERGES
        )
        # The bus's entire overhead is its event traffic: one event per
        # declared-dirty advertiser per round, independent of plan size.
        dirty_count = max(1, int(round(fraction * POPULATION)))
        assert feed.events_published == dirty_count * (ROUNDS - 1)
        assert feed.events_consumed == feed.events_published
        # The windowed estimate tracks the true fraction.
        assert autotuner.dirty_fraction <= 1.0
        assert autotuner.rounds_observed == ROUNDS

    def test_bypass_decision_is_monotone_in_dirty_fraction(self):
        bypasses = []
        for fraction in FRACTIONS:
            autotuner, _, _, _ = run_sweep_point(fraction)
            bypasses.append(autotuner.bypass_rounds)
        assert bypasses == sorted(bypasses), (
            f"bypass counts not monotone over {FRACTIONS}: {bypasses}"
        )
        assert bypasses[0] == 0, "a 1%-dirty market must never bypass"
        assert bypasses[-1] > 0, "a fully dirty market must bypass"
        # At 100% dirty every post-warmup round bypasses.
        assert bypasses[-1] == ROUNDS - CacheAutotuner(warmup=3).warmup

    def test_bypass_rounds_reach_collector_and_result_flag(self):
        collector = MetricsCollector()
        autotuner, _, cached, _ = run_sweep_point(1.0, collector=collector)
        assert autotuner.bypass_rounds > 0
        assert (
            collector.counter(names.CACHE_BYPASS_ROUNDS)
            == autotuner.bypass_rounds
        )

    def test_autotune_resizes_cache_to_working_set(self):
        collector = MetricsCollector()
        autotuner, _, _, _ = run_sweep_point(0.05, collector=collector)
        # A full window of observations produces a recommendation and the
        # unbounded default gets a concrete LRU bound.
        assert autotuner.resizes >= 1
        assert (
            collector.counter(names.CACHE_AUTOTUNE_RESIZES)
            == autotuner.resizes
        )
        recommended = autotuner.recommended_capacity()
        assert recommended is not None
        assert recommended >= max(autotuner._working_sets)


class TestCacheAutotunerUnit:
    def test_parameter_validation(self):
        for kwargs in (
            {"bypass_threshold": 0.0},
            {"window": 0},
            {"warmup": 0},
            {"slack": 0.5},
            {"hysteresis": -0.1},
        ):
            with pytest.raises(InvalidAuctionError):
                CacheAutotuner(**kwargs)

    def test_no_bypass_before_warmup(self):
        tuner = CacheAutotuner(bypass_threshold=0.5, warmup=3)
        tuner.observe_round(10, 10, 5)
        tuner.observe_round(10, 10, 5)
        assert not tuner.should_bypass()
        tuner.observe_round(10, 10, 5)
        assert tuner.should_bypass()

    def test_windowed_mean_forgets_old_rounds(self):
        tuner = CacheAutotuner(bypass_threshold=0.5, window=4, warmup=2)
        for _ in range(4):
            tuner.observe_round(10, 10, 5)
        assert tuner.should_bypass()
        for _ in range(4):
            tuner.observe_round(0, 10, 5)
        assert tuner.dirty_fraction == 0.0
        assert not tuner.should_bypass()

    def test_empty_population_counts_as_clean(self):
        tuner = CacheAutotuner()
        tuner.observe_round(0, 0, 0)
        assert tuner.dirty_fraction == 0.0

    def test_recommendation_requires_full_window(self):
        tuner = CacheAutotuner(window=3, slack=2.0)
        tuner.observe_round(1, 10, 7)
        tuner.observe_round(1, 10, 9)
        assert tuner.recommended_capacity() is None
        tuner.observe_round(1, 10, 8)
        assert tuner.recommended_capacity() == 18  # high-water 9 x slack 2

    def test_hysteresis_suppresses_small_moves(self):
        class FakeCache:
            capacity = 20

            def __init__(self):
                self.resized_to = None

            def resize(self, capacity):
                self.capacity = capacity
                self.resized_to = capacity

        tuner = CacheAutotuner(window=2, slack=2.0, hysteresis=0.25)
        cache = FakeCache()
        tuner.observe_round(1, 10, 11)
        tuner.observe_round(1, 10, 11)
        # Recommendation 22 is within 25% of the current 20: no move.
        assert tuner.maybe_resize(cache) is None
        assert cache.resized_to is None
        tuner.observe_round(1, 10, 20)
        # High-water 20 x 2 = 40 clears the band and is applied.
        assert tuner.maybe_resize(cache) == 40
        assert cache.capacity == 40
        assert tuner.resizes == 1


def _small_market(seed):
    return generate_market(
        MarketConfig(
            num_categories=3,
            phrases_per_category=3,
            specialists_per_category=5,
            generalists=3,
            generalist_categories=2,
            median_budget_cents=2_000,
            seed=seed,
        )
    )


class TestEngineAutotuneDifferential:
    """``cache_autotune`` changes work, never outcomes -- both modes."""

    def _paired(self, mode, seed, rounds=10, **tuned_kwargs):
        market = _small_market(seed)

        def build(**kwargs):
            return SharedAuctionEngine(
                market.advertisers,
                slot_factors=[0.3, 0.2, 0.1],
                search_rates=market.search_rates,
                mode=mode,
                seed=seed,
                **kwargs,
            )

        tuned = build(cache_autotune=True, **tuned_kwargs)
        plain = build()
        for round_index in range(rounds):
            occurring = tuned.sample_occurring_phrases()
            plain._rng.setstate(tuned._rng.getstate())
            report_a = tuned.run_round(occurring)
            report_b = plain.run_round(occurring)
            assert report_a.allocations == report_b.allocations, (
                f"autotuned {mode} diverged in round {round_index}"
            )
            assert report_a.revenue_cents == report_b.revenue_cents
            tuned._rng.setstate(plain._rng.getstate())
        return tuned

    @pytest.mark.parametrize("seed", [0, 7, 21])
    def test_exec_cache_autotune_matches_uncached(self, seed):
        tuned = self._paired("shared", seed, exec_cache=True)
        assert tuned.autotuner is not None
        assert tuned.autotuner.rounds_observed == 10

    @pytest.mark.parametrize("seed", [0, 21])
    def test_sort_cache_autotune_matches_uncached(self, seed):
        tuned = self._paired("shared-sort", seed, sort_cache=True)
        assert tuned.autotuner is not None

    def test_autotune_without_a_cache_rejected(self):
        market = _small_market(0)
        with pytest.raises(InvalidAuctionError, match="cache_autotune"):
            SharedAuctionEngine(
                market.advertisers,
                slot_factors=[0.3, 0.2, 0.1],
                search_rates=market.search_rates,
                cache_autotune=True,
            )

    def test_bus_counters_surface_in_engine_report(self):
        market = _small_market(3)
        collector = MetricsCollector()
        engine = SharedAuctionEngine(
            market.advertisers,
            slot_factors=[0.3, 0.2, 0.1],
            search_rates=market.search_rates,
            mode="shared",
            exec_cache=True,
            seed=3,
            collector=collector,
        )
        report = engine.run(6)
        assert report.counters[names.BUS_EVENTS_PUBLISHED] > 0
        assert report.counters[names.BUS_EVENTS_CONSUMED] > 0
        # The lifetime collector count matches the feed exactly; the
        # round-delta rollup may trail it because the end-of-run click
        # flush publishes between rounds, outside any RoundReport.
        assert engine.changefeed.events_published == collector.counter(
            names.BUS_EVENTS_PUBLISHED
        )
        assert (
            report.counters[names.BUS_EVENTS_PUBLISHED]
            <= engine.changefeed.events_published
        )

    def test_uncached_engine_publishes_nothing(self):
        market = _small_market(3)
        engine = SharedAuctionEngine(
            market.advertisers,
            slot_factors=[0.3, 0.2, 0.1],
            search_rates=market.search_rates,
            mode="shared",
            seed=3,
        )
        engine.run(4)
        assert not engine.changefeed.active
        assert engine.changefeed.events_published == 0

    def test_columnar_exec_cache_publishes_nothing(self):
        # The columnar exec cache invalidates by its own score diff and
        # takes no subscription: with it on, the feed stays inactive.
        pytest.importorskip("numpy")
        market = _small_market(3)
        engine = SharedAuctionEngine(
            market.advertisers,
            slot_factors=[0.3, 0.2, 0.1],
            search_rates=market.search_rates,
            mode="shared",
            layout="columnar",
            exec_cache=True,
            seed=3,
        )
        report = engine.run(6)
        assert report.displays > 0
        assert not engine.changefeed.active
        assert engine.changefeed.events_published == 0
