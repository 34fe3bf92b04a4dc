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
engine configuration -- unshared, shared and shared-sort on both
layouts (on the object reference all three are one scan per phrase),
and the columnar layout's exec cache (its per-query score diff
feeds the row-granular dirty mask, so serving is where the vectorized
kernels and the incremental cache genuinely compose).
"""

from __future__ import annotations

import pytest

from repro.engine import SharedAuctionEngine
from repro.engine.rounds import TimestampedQuery, singleton_rounds
from repro.serving import ServingEngine, TrafficGenerator
from repro.workloads.generator import MarketConfig, generate_market

SEEDS = range(50)
QUERIES_PER_SEED = 30
SLOT_FACTORS = [0.3, 0.2]

try:
    import numpy
except ImportError:  # pragma: no cover - numpy ships with the package
    numpy = None

needs_numpy = pytest.mark.skipif(
    numpy is None, reason="columnar layout requires numpy"
)

CONFIGS = [
    pytest.param({"mode": "shared", "layout": "object"}, id="shared-uncached"),
    pytest.param({"mode": "unshared", "layout": "object"}, id="unshared"),
    pytest.param(
        {"mode": "shared-sort", "layout": "object"}, id="shared-sort-uncached"
    ),
    pytest.param(
        {"mode": "shared", "layout": "columnar"},
        id="columnar-shared-uncached",
        marks=needs_numpy,
    ),
    pytest.param(
        {"mode": "shared", "exec_cache": True, "layout": "columnar"},
        id="columnar-exec-cache",
        marks=needs_numpy,
    ),
    pytest.param(
        {"mode": "shared-sort", "layout": "columnar"},
        id="columnar-shared-sort",
        marks=needs_numpy,
    ),
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


def make_engine(market, seed: int, **kwargs) -> SharedAuctionEngine:
    return SharedAuctionEngine(
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
    the exec cache, and layouts change work, never outcomes."""
    market = small_market(7)
    arrivals = arrivals_for(market, 7)
    baseline = serve_trace(market, arrivals, 7, mode="shared", layout="object")
    configs = [
        {"mode": "unshared", "layout": "object"},
        {"mode": "shared-sort", "layout": "object"},
    ]
    if numpy is not None:
        configs += [
            {"mode": "shared", "layout": "columnar", "exec_cache": True},
            {"mode": "shared-sort", "layout": "columnar"},
            {"mode": "unshared", "layout": "columnar"},
        ]
    for config in configs:
        assert serve_trace(market, arrivals, 7, **config) == baseline
