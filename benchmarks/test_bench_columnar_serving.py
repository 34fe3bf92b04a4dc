"""E21 -- columnar serving against the reference.

The engine serving queries one at a time through the Section III
pipeline (``mode="shared-sort"``), no cross-round cache, is
byte-identical over 50 seeds to :class:`repro.reference.ReferenceEngine`
serving the same arrival trace -- every query's winners and prices,
click money, and the final budget books.  The timed kernel is one steady-state columnar
serving tick on the scaled Fig. 4 market (2000 advertisers / 480
phrases).
"""

from __future__ import annotations

import pytest

from repro.engine import SharedAuctionEngine
from repro.reference import ReferenceEngine
from repro.serving import ServingEngine, TrafficGenerator
from repro.workloads.fig4 import fig4_market
from repro.workloads.generator import MarketConfig, generate_market

IDENTITY_SEEDS = 50
IDENTITY_QUERIES = 30
SLOTS = [0.3, 0.2, 0.1]
SCALED = dict(num_queries=60, num_advertisers=250, num_components=8)
WARMUP_QUERIES = 50
MODE = "shared-sort"


def _small_market(seed: int):
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


def _loop(advertisers, rates, reference, seed):
    engine = (ReferenceEngine if reference else SharedAuctionEngine)(
        advertisers,
        slot_factors=SLOTS,
        search_rates=rates,
        seed=seed,
        mode=MODE,
    )
    traffic = TrafficGenerator.from_search_rates(
        rates, rate_qps=200.0, seed=seed
    )
    return engine, ServingEngine(engine, traffic, keep_history=True)


def _served_outcome(advertisers, rates, reference, seed):
    engine, loop = _loop(advertisers, rates, reference, seed)
    report = loop.run(IDENTITY_QUERIES)
    return (
        [(q.phrase, q.allocation) for q in report.history],
        report.revenue_cents,
        report.forgiven_cents,
        report.clicks,
        engine.budget_manager.spent_snapshot(),
    )


@pytest.mark.experiment("E21")
def test_columnar_serving_identity_and_speed(benchmark):
    # 50-seed trace identity.
    for seed in range(IDENTITY_SEEDS):
        market = _small_market(seed)
        reference, engine = (
            _served_outcome(
                market.advertisers, market.search_rates, reference, seed
            )
            for reference in (True, False)
        )
        assert reference == engine, (
            f"serving diverged from the reference (seed {seed})"
        )

    advertisers, rates = fig4_market(
        seed=4, median_budget_cents=20_000, **SCALED
    )
    # Timed kernel: one steady-state columnar serving tick.
    _, loop = _loop(advertisers, rates, False, 17)
    loop.keep_history = False
    loop.run(WARMUP_QUERIES)
    arrivals = iter(loop.traffic)

    def serve_tick():
        loop.serve_one(next(arrivals))

    benchmark(serve_tick)
