"""E21 -- columnar serving against the object layout, measured.

``layout="columnar"`` serving queries one at a time through the
Section III pipeline (``mode="shared-sort"``), no cross-round cache.
Two halves:

1. **Identity** (50 seeds): columnar serving is byte-identical to object
   serving on the same arrival trace -- every query's winners and
   prices, click money, and the final budget books.
2. **Speed** (the scaled Fig. 4 market, 2000 advertisers / 480
   phrases): columnar serving resolves a query at least 2x faster than
   object serving.  ``shared-sort`` is the family whose *object* engine
   is constructible at this scale -- the object greedy plan build of
   ``mode="shared"`` exceeds minutes at 480 phrases.

Results merge into the ``columnar_serving`` key of
``BENCH_serving.json`` (E18 owns the other keys); the tracked entries
(``columnar_serving.outcomes_identical``,
``columnar_serving.speedup_per_query``) feed
``bench_report.py --check``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

pytest.importorskip("numpy")

from repro.engine import SharedAuctionEngine
from repro.metrics.tables import ExperimentTable
from repro.serving import ServingEngine, TrafficGenerator
from repro.workloads.fig4 import fig4_market
from repro.workloads.generator import MarketConfig, generate_market

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_serving.json"
SPEEDUP_FLOOR = 2.0
IDENTITY_SEEDS = 50
IDENTITY_QUERIES = 30
SLOTS = [0.3, 0.2, 0.1]
SCALED = dict(num_queries=60, num_advertisers=250, num_components=8)
WARMUP_QUERIES = 50
TIMED_QUERIES = 250
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


def _loop(advertisers, rates, layout, seed):
    engine = SharedAuctionEngine(
        advertisers,
        slot_factors=SLOTS,
        search_rates=rates,
        seed=seed,
        layout=layout,
        mode=MODE,
    )
    traffic = TrafficGenerator.from_search_rates(
        rates, rate_qps=200.0, seed=seed
    )
    return engine, ServingEngine(engine, traffic, keep_history=True)


def _served_outcome(advertisers, rates, layout, seed):
    engine, loop = _loop(advertisers, rates, layout, seed)
    report = loop.run(IDENTITY_QUERIES)
    return (
        [(q.phrase, q.allocation) for q in report.history],
        report.revenue_cents,
        report.forgiven_cents,
        report.clicks,
        engine.budget_manager.spent_snapshot(),
    )


def _timed_ms_per_query(advertisers, rates, layout):
    _, loop = _loop(advertisers, rates, layout, 17)
    loop.keep_history = False
    loop.run(WARMUP_QUERIES)  # past lazy presorts
    start = time.perf_counter()
    loop.run(TIMED_QUERIES)
    return (time.perf_counter() - start) * 1000.0 / TIMED_QUERIES


@pytest.mark.experiment("E21")
def test_columnar_serving_identity_and_speed(benchmark):
    # ------------------------------------------------------------- 1.
    # 50-seed trace identity.
    identical = True
    for seed in range(IDENTITY_SEEDS):
        market = _small_market(seed)
        outcomes = {
            layout: _served_outcome(
                market.advertisers, market.search_rates, layout, seed
            )
            for layout in ("object", "columnar")
        }
        same = outcomes["object"] == outcomes["columnar"]
        identical = identical and same
        assert same, f"serving diverged across layouts (seed {seed})"

    # ------------------------------------------------------------- 2.
    # Per-query wall clock at the scaled point.
    advertisers, rates = fig4_market(
        seed=4, median_budget_cents=20_000, **SCALED
    )
    object_ms = _timed_ms_per_query(advertisers, rates, "object")
    columnar_ms = _timed_ms_per_query(advertisers, rates, "columnar")
    speedup = object_ms / columnar_ms
    assert speedup >= SPEEDUP_FLOOR, (
        f"columnar serving only {speedup:.2f}x faster per query "
        f"than object serving (floor {SPEEDUP_FLOOR}x)"
    )

    record = {
        "workload": {
            **SCALED,
            "mode": MODE,
            "advertisers": len(advertisers),
            "phrases": len(rates),
            "warmup_queries": WARMUP_QUERIES,
            "timed_queries": TIMED_QUERIES,
        },
        "identity_seeds": IDENTITY_SEEDS,
        "identity_queries_per_seed": IDENTITY_QUERIES,
        "outcomes_identical": identical,
        "speedup_per_query": round(speedup, 2),
        "speedup_floor": SPEEDUP_FLOOR,
        "object_ms_per_query": round(object_ms, 4),
        "columnar_ms_per_query": round(columnar_ms, 4),
    }
    merged = {}
    if BENCH_JSON.exists():
        merged = json.loads(BENCH_JSON.read_text())
    merged["columnar_serving"] = record
    BENCH_JSON.write_text(json.dumps(merged, indent=2) + "\n")

    table = ExperimentTable(
        f"E21: {MODE} serving by layout "
        f"({len(advertisers)} advertisers, {len(rates)} phrases)",
        ["metric", "value"],
    )
    table.add("identity seeds", IDENTITY_SEEDS)
    table.add("object (ms/q)", round(object_ms, 3))
    table.add("columnar (ms/q)", round(columnar_ms, 3))
    table.add("speedup per query", round(speedup, 2))
    table.show()

    # Timed kernel: one steady-state columnar serving tick.
    _, loop = _loop(advertisers, rates, "columnar", 17)
    loop.keep_history = False
    loop.run(WARMUP_QUERIES)
    arrivals = iter(loop.traffic)

    def serve_tick():
        loop.serve_one(next(arrivals))

    benchmark(serve_tick)
