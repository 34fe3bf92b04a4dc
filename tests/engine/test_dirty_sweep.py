"""The columnar exec cache under a controlled dirty-fraction sweep.

The sweep drives a cross-round :class:`ColumnarFragmentExecutor` with
nested dirty sets covering 1% to 100% of a 100-advertiser population
and pins its contract against the uncached executor and the object
:class:`PlanExecutor`:

- answers are identical at every fraction, round for round;
- the rows a round treats as dirty are exactly the rows that moved;
- cached work never exceeds uncached work, grows with the fraction
  (nested dirty sets), and equals it once every row moves.
"""

from __future__ import annotations

import functools
import random

import pytest

from repro.engine.pipeline import SharedAuctionEngine
from repro.instrument import MetricsCollector, names
from repro.plans.executor import PlanExecutor
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


@functools.lru_cache(maxsize=1)
def sweep_plan():
    """The object oracle's plan: built once, it is the slow part."""
    return greedy_shared_plan(sweep_instance(), pair_strategy="cover")


def _entries(answers):
    return {
        name: [(e.score, e.advertiser_id) for e in ranking.entries]
        for name, ranking in answers.items()
    }


def run_sweep_point(fraction):
    """One sweep point: ROUNDS rounds at a fixed nested dirty fraction.

    The dirty set of every round after the first is the first
    ``round(fraction * N)`` advertisers of one fixed permutation, so a
    higher fraction's dirty set is a superset of a lower one's in every
    round -- the nesting that makes the monotonicity assertion
    meaningful.

    Returns:
        ``(cached_collector, uncached_collector)``.
    """
    np = pytest.importorskip("numpy")
    from repro.core.advertiser import Advertiser
    from repro.core.columnar import ColumnarStore
    from repro.plans.columnar_exec import ColumnarFragmentExecutor

    instance = sweep_instance()
    store = ColumnarStore(
        [
            Advertiser(i, 1.0, phrases=frozenset({"p"}))
            for i in range(POPULATION)
        ]
    )
    plan = sweep_plan()
    order = list(range(POPULATION))
    random.Random(1).shuffle(order)
    dirty_count = max(1, int(round(fraction * POPULATION)))
    scored = set().union(*(query.variables for query in instance.queries))
    queries = [query.name for query in instance.queries]

    cached_collector = MetricsCollector()
    uncached_collector = MetricsCollector()
    cached = ColumnarFragmentExecutor(
        instance, store, 3, cached_collector, cross_round=True
    )
    uncached = ColumnarFragmentExecutor(instance, store, 3, uncached_collector)
    oracle = PlanExecutor(plan, 3)
    assert plan.instance.queries == instance.queries

    scores = {v: float((v * 37) % 53 + 1) for v in range(POPULATION)}
    for round_index in range(ROUNDS):
        if round_index:
            for v in order[:dirty_count]:
                scores[v] = scores[v] + 1.0 + (v % 5)
        by_row = np.zeros(store.size, dtype=np.float64)
        for v, score in scores.items():
            by_row[store.row_of(v)] = score
        a = cached.run_round(by_row, queries)
        b = uncached.run_round(by_row, queries)
        c = oracle.run_round(dict(scores))
        assert _entries(a.answers) == _entries(b.answers), (
            f"divergence at fraction {fraction} round {round_index}"
        )
        assert _entries(a.answers) == _entries(c.answers)
        moved = set(order[:dirty_count]) if round_index else scored
        dirty = {int(store.ids[row]) for row in cached.dirty_rows_last_round()}
        assert dirty == moved & scored
    return cached_collector, uncached_collector


class TestDirtyFractionSweep:
    @pytest.mark.parametrize("fraction", FRACTIONS)
    def test_cached_work_never_exceeds_uncached(self, fraction):
        cached, uncached = run_sweep_point(fraction)
        cached_scans = cached.counter(names.PLAN_LEAF_SCANS)
        uncached_scans = uncached.counter(names.PLAN_LEAF_SCANS)
        assert cached_scans <= uncached_scans
        assert cached.counter(names.PLAN_MERGES) <= uncached.counter(
            names.PLAN_MERGES
        )
        if fraction == 1.0:
            # Every row moves every round: nothing is left to reuse.
            assert cached_scans == uncached_scans
        else:
            assert cached_scans < uncached_scans

    def test_cached_work_grows_with_the_dirty_fraction(self):
        scans = [
            run_sweep_point(fraction)[0].counter(names.PLAN_LEAF_SCANS)
            for fraction in FRACTIONS
        ]
        assert scans == sorted(scans), (
            f"cached scans not monotone over {FRACTIONS}: {scans}"
        )
        assert scans[0] < scans[-1]


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


class TestExecCacheIsOutcomeInvisible:
    """The columnar exec cache changes work, never outcomes."""

    @pytest.mark.parametrize("seed", [0, 7, 21])
    def test_exec_cache_matches_uncached(self, seed):
        pytest.importorskip("numpy")
        market = _small_market(seed)

        def build(collector, **kwargs):
            return SharedAuctionEngine(
                market.advertisers,
                slot_factors=[0.3, 0.2, 0.1],
                search_rates=market.search_rates,
                mode="shared",
                layout="columnar",
                seed=seed,
                collector=collector,
                **kwargs,
            )

        cached_collector = MetricsCollector()
        plain_collector = MetricsCollector()
        cached = build(cached_collector, exec_cache=True)
        plain = build(plain_collector)
        for round_index in range(10):
            occurring = cached.sample_occurring_phrases()
            plain._rng.setstate(cached._rng.getstate())
            report_a = cached.run_round(occurring)
            report_b = plain.run_round(occurring)
            assert report_a.allocations == report_b.allocations, (
                f"cached run diverged in round {round_index}"
            )
            assert report_a.revenue_cents == report_b.revenue_cents
            cached._rng.setstate(plain._rng.getstate())
        assert cached_collector.counter(
            names.PLAN_LEAF_SCANS
        ) < plain_collector.counter(names.PLAN_LEAF_SCANS)

