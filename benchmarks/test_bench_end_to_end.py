"""E10 -- end-to-end shared vs unshared winner determination.

The paper's headline motivation: batching simultaneous auctions and
sharing their top-k work cuts the per-round computation while leaving
every outcome identical.  We run the full engine (throttling, budgets,
delayed clicks) on a generated market in both modes and compare work
counters and timings; both must allocate as
:class:`repro.reference.ReferenceEngine` does.
"""

from __future__ import annotations

import pytest

from repro.engine import SharedAuctionEngine
from repro.instrument import MetricsCollector, names
from repro.metrics.tables import WORK_COLUMN_NAMES, ExperimentTable, work_columns
from repro.reference import ReferenceEngine
from repro.workloads.generator import MarketConfig, generate_market

ROUNDS = 30


def build_engine(market, mode: str, collector=None, reference=False):
    if reference:
        return ReferenceEngine(
            market.advertisers, [0.3, 0.2, 0.1], market.search_rates,
            mode=mode, seed=13,
        )
    return SharedAuctionEngine(
        market.advertisers,
        slot_factors=[0.3, 0.2, 0.1],
        search_rates=market.search_rates,
        mode=mode,
        throttle=True,
        seed=13,
        collector=collector,
    )


@pytest.mark.experiment("EndToEnd")
def test_shared_vs_unshared_work(benchmark):
    table = ExperimentTable(
        f"End-to-end engine, {ROUNDS} rounds per configuration",
        [
            "generalists",
            "mode",
            *WORK_COLUMN_NAMES,
            "revenue ($)",
            "identical outcomes",
        ],
    )
    for generalists in (5, 20, 40):
        market = generate_market(
            MarketConfig(
                num_categories=3,
                phrases_per_category=4,
                specialists_per_category=15,
                generalists=generalists,
                generalist_categories=2,
                seed=9,
            )
        )
        reports = {}
        work = {}
        for mode in ("shared", "unshared"):
            # The work table comes from measured counters; the timed
            # benchmark below runs a separate collector-free engine.
            collector = MetricsCollector()
            engine = build_engine(market, mode, collector)
            reports[mode] = engine.run(ROUNDS)
            work[mode] = work_columns(collector)
        oracle = build_engine(market, "unshared", reference=True).run(ROUNDS)
        identical = all(
            [r.allocations for r in report.history]
            == [r.allocations for r in oracle.history]
            and report.revenue_cents == oracle.revenue_cents
            for report in reports.values()
        )
        for mode in ("shared", "unshared"):
            report = reports[mode]
            table.add(
                generalists,
                mode,
                *work[mode],
                report.revenue_cents / 100,
                identical,
            )
        assert identical
        assert reports["shared"].scans <= reports["unshared"].scans
        # The counters must tell the same story as the report fields:
        # a round of one phrase is a scan in every mode.
        assert sum(
            work["shared"][WORK_COLUMN_NAMES.index(column)]
            for column in ("leaf scans", "scan entries")
        ) == reports["shared"].scans
        assert work["unshared"][WORK_COLUMN_NAMES.index("scan entries")] == (
            reports["unshared"].scans
        )
    table.show()

    market = generate_market(
        MarketConfig(
            num_categories=3,
            phrases_per_category=4,
            specialists_per_category=15,
            generalists=40,
            generalist_categories=2,
            seed=9,
        )
    )
    shared_engine = build_engine(market, "shared")
    benchmark(lambda: shared_engine.run_round())


@pytest.mark.experiment("EndToEnd")
def test_unshared_round_baseline(benchmark):
    market = generate_market(
        MarketConfig(
            num_categories=3,
            phrases_per_category=4,
            specialists_per_category=15,
            generalists=40,
            generalist_categories=2,
            seed=9,
        )
    )
    engine = build_engine(market, "unshared")
    benchmark(lambda: engine.run_round())
