"""The serving/batch differential battery.

The serving loop's whole correctness argument is one theorem: serving a
query trace through :meth:`SharedAuctionEngine.serve_query` is
outcome-identical -- winners, prices, clicks, revenue, and the full
budget trajectory -- to replaying the same trace through the batch
engine as single-phrase rounds (:func:`singleton_rounds` is the
replay's vocabulary).  Both paths share the engine's stage methods but
compose them differently, and the caches change *when* invalidation
work happens (per query instead of per round), so the equivalence is a
real claim about the composition, not a tautology.

This suite checks the theorem empirically over 50 seeded markets per
engine configuration -- unshared, shared and shared-sort on the engine
and on :class:`repro.reference.ReferenceEngine` (where all three are one
scan per phrase), and the engine's exec cache (its per-query score diff
feeds the row-granular dirty mask, so serving is where the vectorized
kernels and the incremental cache genuinely compose).  The reference
prices a served tick with its own arithmetic, so
:func:`test_serving_outcomes_agree_across_configs` also checks the
engine's scalar pricer against an independent one.
"""

from __future__ import annotations

import pytest

from repro.engine import SharedAuctionEngine
from repro.engine.rounds import TimestampedQuery, singleton_rounds
from repro.reference import ReferenceEngine
from repro.serving import ServingEngine, TrafficGenerator
from repro.workloads.generator import MarketConfig, generate_market

SEEDS = range(50)
QUERIES_PER_SEED = 30
SLOT_FACTORS = [0.3, 0.2]

CONFIGS = [
    pytest.param({"reference": True, "mode": "shared"}, id="reference-shared"),
    pytest.param(
        {"reference": True, "mode": "unshared"}, id="reference-unshared"
    ),
    pytest.param(
        {"reference": True, "mode": "shared-sort"}, id="reference-shared-sort"
    ),
    pytest.param({"mode": "shared"}, id="columnar-shared-uncached"),
    pytest.param(
        {"mode": "shared", "exec_cache": True}, id="columnar-exec-cache"
    ),
    pytest.param({"mode": "shared-sort"}, id="columnar-shared-sort"),
    pytest.param({"mode": "unshared"}, id="columnar-unshared"),
]


def small_market(seed: int):
    """A small budgeted market: budgets must move so the trajectory
    comparison is not vacuous."""
    return generate_market(
        MarketConfig(
            num_categories=2,
            phrases_per_category=3,
            specialists_per_category=5,
            generalists=3,
            median_budget_cents=1500,
            seed=seed,
        )
    )


def make_engine(market, seed: int, reference=False, **kwargs):
    """The engine, or with ``reference`` the reference, over ``market``."""
    return (ReferenceEngine if reference else SharedAuctionEngine)(
        market.advertisers,
        slot_factors=SLOT_FACTORS,
        search_rates=market.search_rates,
        seed=seed,
        **kwargs,
    )


def arrivals_for(market, seed: int):
    traffic = TrafficGenerator.from_search_rates(
        market.search_rates, rate_qps=100.0, zipf_exponent=1.2, seed=seed
    )
    return traffic.take(QUERIES_PER_SEED)


def serve_trace(market, arrivals, seed: int, **kwargs):
    """Serve the trace query-at-a-time; return the comparable outcome."""
    engine = make_engine(market, seed, **kwargs)
    traffic = TrafficGenerator.from_search_rates(
        market.search_rates, rate_qps=100.0, seed=seed
    )
    loop = ServingEngine(engine, traffic)
    outcomes = []
    trajectory = []
    for arrival in arrivals:
        report = loop.serve_one(arrival)
        outcomes.append(
            (
                arrival.phrase,
                report.allocation,
                report.revenue_cents,
                report.forgiven_cents,
                report.clicks,
            )
        )
        trajectory.append(engine.budget_manager.spent_snapshot())
    flush = engine.settle_remaining_clicks()
    return outcomes, trajectory, flush, engine.budget_manager.spent_snapshot()


def replay_trace(market, arrivals, seed: int, **kwargs):
    """Replay the same trace as single-phrase batch rounds."""
    engine = make_engine(market, seed, **kwargs)
    queries = (
        TimestampedQuery(arrival.arrival_time, arrival.phrase)
        for arrival in arrivals
    )
    outcomes = []
    trajectory = []
    for batch in singleton_rounds(queries):
        (phrase,) = batch.distinct_phrases
        assert batch.phrase_counts[phrase] == 1
        report = engine.run_round([phrase])
        outcomes.append(
            (
                phrase,
                report.allocations[phrase],
                report.revenue_cents,
                report.forgiven_cents,
                report.clicks,
            )
        )
        trajectory.append(engine.budget_manager.spent_snapshot())
    flush = engine.settle_remaining_clicks()
    return outcomes, trajectory, flush, engine.budget_manager.spent_snapshot()


@pytest.mark.parametrize("config", CONFIGS)
def test_serving_equals_singleton_batch_replay_over_50_seeds(config):
    """Winners, prices, click money, and budget trajectories agree
    query by query between the serving loop and the batch replay."""
    mismatches = []
    for seed in SEEDS:
        market = small_market(seed)
        arrivals = arrivals_for(market, seed)
        served = serve_trace(market, arrivals, seed, **config)
        replayed = replay_trace(market, arrivals, seed, **config)
        if served != replayed:
            mismatches.append(seed)
    assert mismatches == []


def test_trajectories_actually_move():
    """Anti-vacuity guard: the budgeted market spends money, so the
    trajectory comparison above is comparing something real."""
    market = small_market(0)
    arrivals = arrivals_for(market, 0)
    _, trajectory, _, final = serve_trace(market, arrivals, 0, mode="shared")
    assert final, "no advertiser spent anything; market too idle"
    assert trajectory[0] != trajectory[-1]


def test_serving_outcomes_agree_across_configs():
    """Every configuration serves the same trace identically -- modes,
    and the exec cache change work, never outcomes, and the engine serves
    what the reference serves."""
    market = small_market(7)
    arrivals = arrivals_for(market, 7)
    baseline = serve_trace(
        market, arrivals, 7, reference=True, mode="shared"
    )
    configs = [
        {"reference": True, "mode": "unshared"},
        {"reference": True, "mode": "shared-sort"},
        {"mode": "shared", "exec_cache": True},
        {"mode": "shared-sort"},
        {"mode": "unshared"},
    ]
    for config in configs:
        assert serve_trace(market, arrivals, 7, **config) == baseline
