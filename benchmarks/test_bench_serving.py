"""E18 -- the serving engine: sustained QPS and exact tail latency.

A query-at-a-time tick on the Fig. 4-derived market resolves in well
under a millisecond, measured as exact nearest-rank p50/p99 over a
600-query session (no sketches -- the recorder keeps every sample).
Every configuration serves the identical trace with the identical
outcome as the object reference; the columnar exec cache must reuse
fragment lists in steady state (``plan.nodes_reused`` > 0).

Latency sessions run with the null collector (metric bookkeeping would
tax exactly the path being timed); work sessions re-run the identical
trace with a collector, which is sound because outcomes and work
counters are deterministic for a fixed configuration.  The only wall
gate is a generous p50 ceiling to catch pathological regressions without
CI noise.
"""

from __future__ import annotations

import pytest

from repro.engine import SharedAuctionEngine
from repro.instrument import MetricsCollector, names
from repro.metrics.tables import ExperimentTable
from repro.serving import ServingEngine, TrafficGenerator
from repro.workloads.fig4 import fig4_market

QUERIES = 600
ARRIVAL_RATE_QPS = 200.0
ZIPF_EXPONENT = 1.0
MARKET_SEED = 4
ENGINE_SEED = 17
P50_CEILING_SECONDS = 0.050  # measured ~0.3 ms; 50 ms means pathology


def make_loop(collector=None, **engine_kwargs):
    # Budgets are loose enough that the Section IV exact-throttle DP
    # stays on its trivially-unthrottled fast path (tight budgets make
    # every tick pay O(outstanding x budget) per advertiser -- a real
    # cost, but a property of the throttle problem, not of the serving
    # loop this experiment measures) while clicks still move the books.
    advertisers, search_rates = fig4_market(
        seed=MARKET_SEED, median_budget_cents=20_000
    )
    engine = SharedAuctionEngine(
        advertisers,
        slot_factors=[0.3, 0.2, 0.1],
        search_rates=search_rates,
        seed=ENGINE_SEED,
        collector=collector,
        **engine_kwargs,
    )
    traffic = TrafficGenerator.from_search_rates(
        search_rates,
        rate_qps=ARRIVAL_RATE_QPS,
        zipf_exponent=ZIPF_EXPONENT,
        seed=ENGINE_SEED,
    )
    return ServingEngine(engine, traffic, keep_history=False)


def latency_session(**engine_kwargs):
    """Timed pass: null collector, nothing taxing the serve path."""
    report = make_loop(**engine_kwargs).run(QUERIES)
    return report.latency


def work_session(**engine_kwargs):
    """Accounting pass: identical trace, collector enabled."""
    collector = MetricsCollector()
    report = make_loop(collector=collector, **engine_kwargs).run(QUERIES)
    return report.counters, report


EXEC_CACHE = {"mode": "shared", "layout": "columnar", "exec_cache": True}
CONFIGS = [
    ("object reference", {"mode": "unshared", "layout": "object"}),
    ("shared columnar", {"mode": "shared", "layout": "columnar"}),
    ("shared columnar +exec-cache", EXEC_CACHE),
    ("shared-sort columnar", {"mode": "shared-sort", "layout": "columnar"}),
]

# The counter each configuration's ranking reports its reads under.
WORK_COUNTER = {
    "object": names.TOPK_SCAN_ENTRIES,
    "shared": names.PLAN_LEAF_SCANS,
    "shared-sort": names.TA_SORTED_ACCESSES,
}


@pytest.mark.experiment("Serving")
def test_serving_qps_and_latency(benchmark):
    table = ExperimentTable(
        f"Serving fig4 market, {QUERIES} queries, Zipf {ZIPF_EXPONENT}",
        ["config", "qps", "p50 (ms)", "p99 (ms)", "scans/query"],
    )
    counters_by_label = {}
    revenues = set()
    for label, config in CONFIGS:
        latency = latency_session(**config)
        counters, report = work_session(**config)
        counters_by_label[label] = counters
        work = counters.get(
            WORK_COUNTER[
                "object" if config["layout"] == "object" else config["mode"]
            ],
            0,
        )
        assert work > 0, label
        table.add(
            label,
            round(latency.qps, 1),
            round(latency.p50_seconds * 1000.0, 4),
            round(latency.p99_seconds * 1000.0, 4),
            round(work / QUERIES, 2),
        )
        assert latency.count == QUERIES
        assert latency.p50_seconds <= P50_CEILING_SECONDS, label
        revenues.add((report.revenue_cents, report.clicks))
    table.show()
    assert len(revenues) == 1, f"configs disagree on outcomes: {revenues}"

    reused = counters_by_label["shared columnar +exec-cache"].get(
        names.PLAN_NODES_REUSED, 0
    )
    assert reused > 0, "steady state never reused a cached fragment"

    # Identical sessions must record identical counters (the serving
    # determinism contract the test suite pins on a smaller market).
    again, _ = work_session(**EXEC_CACHE)
    assert again == counters_by_label["shared columnar +exec-cache"]

    # Timed kernel: one steady-state cached serving tick, end to end.
    loop = make_loop(**EXEC_CACHE)
    loop.run(100)  # past the cold start
    arrivals = iter(loop.traffic)

    def serve_tick():
        loop.serve_one(next(arrivals))

    benchmark(serve_tick)
