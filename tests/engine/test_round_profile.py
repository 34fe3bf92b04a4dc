"""The round profile every report carries, with or without a collector.

``RoundReport.stage_ns`` is the wall time of the engine's four stages,
and the fields beside it (``rows_scored``, ``book_rows_synced``,
``problems_rebuilt``, ``rebuilt_cells``, ``exact_bids``) the sizes that
explain stage 2.  The engine writes both on every round; an enabled
collector only folds the reports into ``engine.stage.*`` and the
``columnar.*`` / ``throttle.*`` counters (DESIGN section 8).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.engine.budget_manager import BudgetManager
from repro.engine.pipeline import SharedAuctionEngine
from repro.instrument import NULL, MetricsCollector, names
from repro.workloads.generator import MarketConfig, generate_market

SIZES = (
    "rows_scored", "book_rows_synced", "problems_rebuilt", "rebuilt_cells",
    "exact_bids",
)


def _engine(mode="unshared", collector=None):
    """27 advertisers on tight budgets: debt carriers from round 1 on."""
    market = generate_market(
        MarketConfig(
            num_categories=3,
            phrases_per_category=3,
            specialists_per_category=5,
            generalists=3,
            generalist_categories=2,
            median_budget_cents=600,
            seed=5,
        )
    )
    return SharedAuctionEngine(
        market.advertisers, [0.3, 0.2, 0.1], market.search_rates,
        mode=mode, seed=5, click_horizon_rounds=4, collector=collector,
    )


class TestSizesWithoutACollector:
    def test_rebuilt_problems_are_the_books_calls(self, monkeypatch):
        built = []
        throttle_problem = BudgetManager.throttle_problem

        def spy(self, *args):
            built.append(throttle_problem(self, *args))
            return built[-1]

        monkeypatch.setattr(BudgetManager, "throttle_problem", spy)
        engine = _engine()
        assert engine.collector is NULL
        kept = 0
        for _ in range(30):
            before = len(built)
            report = engine.run_round()
            rebuilt = built[before:]
            assert report.problems_rebuilt == len(rebuilt)
            assert report.rebuilt_cells == sum(p.array_cells for p in rebuilt)
            assert report.exact_bids <= report.debt_carriers_scored
            assert report.rows_scored == len(set().union(*(
                engine.phrase_advertisers[p] for p in report.occurring_phrases
            )))
            kept += report.debt_carriers_scored - report.problems_rebuilt
        # Both routes ran: problems built from the books, and kept ones
        # asked again.
        assert built and kept > 0

    def test_an_empty_round_times_only_delivery(self):
        engine = _engine()
        for _ in range(6):
            engine.run_round()
        for _ in range(3):
            report = engine.run_round([])
            assert report.stage_ns[1:] == (0, 0, 0)
            assert report.stage_ns[0] >= 0
            assert [getattr(report, size) for size in SIZES] == [0] * 5
        # The books the empty rounds moved are synced by the next stage 2.
        phrase = sorted(engine.phrase_advertisers)[0]
        report = engine.run_round([phrase])
        assert report.book_rows_synced > 0
        assert min(report.stage_ns) >= 0 and sum(report.stage_ns) > 0

    def test_the_collector_changes_no_report_field(self):
        plain, counted = _engine(), _engine(collector=MetricsCollector())
        for _ in range(20):
            mine, theirs = plain.run_round(), counted.run_round()
            # stage_ns is not compared: equal rounds take unequal time.
            assert mine.stage_ns != (0, 0, 0, 0)
            assert mine == dataclasses.replace(theirs, counters=None)


class TestTheCollectorFoldsReports:
    @pytest.mark.parametrize("mode", ("unshared", "shared", "shared-sort"))
    def test_counters_and_timers_are_the_reports_summed(self, mode):
        collector = MetricsCollector()
        history = _engine(mode, collector).run(25).history
        for name, size in (
            (names.COLUMNAR_SCORE_ROWS, "rows_scored"),
            (names.COLUMNAR_BOOK_ROWS_SYNCED, "book_rows_synced"),
            (names.COLUMNAR_THROTTLE_PROBLEMS_REBUILT, "problems_rebuilt"),
            (names.THROTTLE_EXACT_FALLBACKS, "exact_bids"),
        ):
            assert collector.counter(name) == sum(
                getattr(report, size) for report in history
            )
        assert collector.counter(names.COLUMNAR_THROTTLE_PROBLEMS_REBUILT) > 0
        stages = (
            names.ENGINE_STAGE_DELIVER_TIMER,
            names.ENGINE_STAGE_SCORE_TIMER,
            names.ENGINE_STAGE_RANK_TIMER,
            names.ENGINE_STAGE_ALLOCATE_TIMER,
        )
        for at, name in enumerate(stages):
            assert collector.timers[name].total_s == pytest.approx(
                sum(report.stage_ns[at] for report in history) / 1e9
            )
