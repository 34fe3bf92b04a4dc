"""Work accounting with the instrumentation layer.

Runs the same generated market through the engine in all three modes
with an enabled
:class:`MetricsCollector`, then prints the measured work counters side
by side -- the counter-derived version of the paper's
shared-vs-unshared comparison -- plus a per-round trace excerpt and a
JSON dump.

Run:  python examples/instrumented_engine.py
"""

from __future__ import annotations

from repro.engine import SharedAuctionEngine
from repro.instrument import MetricsCollector, TraceRing, names
from repro.metrics.tables import WORK_COLUMN_NAMES, ExperimentTable, work_columns
from repro.workloads.generator import MarketConfig, generate_market

ROUNDS = 20


def main() -> None:
    market = generate_market(
        MarketConfig(
            num_categories=3,
            phrases_per_category=4,
            specialists_per_category=12,
            generalists=15,
            generalist_categories=2,
            median_budget_cents=5_000,
            seed=11,
        )
    )

    table = ExperimentTable(
        f"Measured work over {ROUNDS} rounds (identical outcomes)",
        ["mode", *WORK_COLUMN_NAMES, "revenue ($)"],
    )
    collectors = {}
    reports = {}
    for mode in ("shared", "shared-sort", "unshared"):
        collector = MetricsCollector(trace=TraceRing(256))
        engine = SharedAuctionEngine(
            market.advertisers,
            slot_factors=[0.3, 0.2, 0.1],
            search_rates=market.search_rates,
            mode=mode,
            seed=7,
            collector=collector,
        )
        report = engine.run(ROUNDS)
        collectors[mode] = collector
        reports[mode] = report
        table.add(mode, *work_columns(collector), report.revenue_cents / 100)
    table.show()

    # Sharing changes the work, never the auction.
    assert (
        reports["shared"].revenue_cents
        == reports["shared-sort"].revenue_cents
        == reports["unshared"].revenue_cents
    )

    shared = collectors["shared"]
    print(
        f"\nshared plan: {shared.counter(names.PLAN_MERGES)} merges over "
        f"{shared.counter(names.PLAN_LEAF_SCANS)} leaf reads, "
        f"{shared.counter(names.PLAN_CANDIDATES_GATHERED)} candidates "
        f"gathered"
    )
    timer = shared.timers[names.ENGINE_ROUND_TIMER]
    print(
        f"round timer: {timer.count} rounds, "
        f"{timer.total_s / timer.count * 1e3:.2f} ms/round mean"
    )

    print("\nlast three trace events (shared mode):")
    for event in shared.trace.events()[-3:]:
        print(f"  #{event.seq} {event.name} {event.fields}")

    path = "instrumented_engine_metrics.json"
    shared.dump(path)
    print(f"\nfull counters + trace written to {path}")


if __name__ == "__main__":
    main()
