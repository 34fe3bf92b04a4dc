"""Unit suite for the serving loop itself.

Covers the pieces the differential battery treats as a black box: the
phrase-universe validation, per-query latency capture through an
injected clock, the columnar exec cache's per-query score diff, report
totals, and the ``serve.*`` gauge flush.
"""

from __future__ import annotations

import pytest

from repro.engine import SharedAuctionEngine
from repro.errors import InvalidAuctionError
from repro.instrument import MetricsCollector, names
from repro.serving import QueryArrival, ServingEngine, TrafficGenerator
from repro.workloads.generator import MarketConfig, generate_market


def small_market(seed=5):
    return generate_market(
        MarketConfig(
            num_categories=2,
            phrases_per_category=2,
            specialists_per_category=4,
            generalists=2,
            median_budget_cents=1500,
            seed=seed,
        )
    )


def make_engine(market, **kwargs):
    kwargs.setdefault("collector", MetricsCollector())
    return SharedAuctionEngine(
        market.advertisers,
        slot_factors=[0.3, 0.2],
        search_rates=market.search_rates,
        seed=5,
        **kwargs,
    )


def phrases_of(market):
    return sorted(market.search_rates)


def make_traffic(market, seed=5):
    return TrafficGenerator.from_search_rates(
        market.search_rates, rate_qps=50.0, seed=seed
    )


class FakeClock:
    """Deterministic clock: each query takes exactly ``step`` seconds."""

    def __init__(self, step=0.002):
        self.now = 0.0
        self.step = step

    def __call__(self):
        value = self.now
        self.now += self.step
        return value


class TestConstruction:
    def test_rejects_traffic_phrases_unknown_to_engine(self):
        market = small_market()
        traffic = TrafficGenerator(["no-such-phrase"], rate_qps=1.0)
        with pytest.raises(InvalidAuctionError, match="no-such-phrase"):
            ServingEngine(make_engine(market), traffic)

    def test_engine_serve_query_rejects_unknown_phrase(self):
        engine = make_engine(small_market())
        with pytest.raises(InvalidAuctionError, match="no advertisers"):
            engine.serve_query("never-bid-on")

    def test_collector_is_the_engines(self):
        engine = make_engine(small_market())
        loop = ServingEngine(engine, make_traffic(small_market()))
        assert loop.collector is engine.collector


class TestServeOne:
    def test_latency_comes_from_the_injected_clock(self):
        market = small_market()
        engine = make_engine(market)
        loop = ServingEngine(
            engine, make_traffic(market), clock=FakeClock(step=0.002)
        )
        report = loop.serve_one(QueryArrival(0, 0.1, phrases_of(market)[0]))
        assert report.latency_seconds == pytest.approx(0.002)
        assert loop.latency.count == 1
        assert loop.queries_served == 1

    def test_query_report_reflects_the_engine_tick(self):
        market = small_market()
        engine = make_engine(market)
        loop = ServingEngine(engine, make_traffic(market))
        phrase = phrases_of(market)[0]
        report = loop.serve_one(QueryArrival(3, 1.25, phrase))
        assert report.query_index == 3
        assert report.phrase == phrase
        assert report.arrival_time == 1.25
        assert report.tick == 0  # first engine tick
        assert report.displays == len(report.allocation)
        assert all(len(triple) == 3 for triple in report.allocation)

    def test_serve_queries_counter_increments(self):
        market = small_market()
        engine = make_engine(market)
        loop = ServingEngine(engine, make_traffic(market))
        loop.serve_one(QueryArrival(0, 0.0, phrases_of(market)[0]))
        loop.serve_one(QueryArrival(1, 0.1, phrases_of(market)[1]))
        assert engine.collector.counter(names.SERVE_QUERIES) == 2


class TestRejectedOperationKeepsTheTickClock:
    """Regression: a rejected query or round takes no round index.

    Click arrivals and expiries are scheduled by tick, so an index
    burned by a bad request would shift every later tick against a
    replay without it.
    """

    @pytest.mark.parametrize(
        "reject",
        [
            lambda engine, market: engine.serve_query("never-bid-on"),
            lambda engine, market: ServingEngine(
                engine, make_traffic(market)
            ).serve_one(QueryArrival(0, 0.0, "never-bid-on")),
            lambda engine, market: engine.run_round(["never-bid-on"]),
        ],
        ids=["serve_query", "serve_one", "run_round"],
    )
    def test_next_ticks_match_a_fresh_engine(self, reject):
        market = small_market()
        trace = [arrival.phrase for arrival in make_traffic(market).take(50)]

        def ticks(engine):
            return [
                (r.round_index, r.allocations, r.clicks, r.revenue_cents)
                for r in map(engine.serve_query, trace)
            ]

        rejected = make_engine(market, collector=None)
        with pytest.raises(InvalidAuctionError, match="never-bid-on"):
            reject(rejected, market)
        served = ticks(rejected)
        assert served == ticks(make_engine(market, collector=None))
        assert sum(clicks for _, _, clicks, _ in served) > 0


class TestPerQueryDiff:
    """A served query diffs only its own phrase's rows.

    The columnar exec cache takes no events: a tick absorbs the scores
    of the rows it scores, so a row off the served phrase is neither
    read nor marked until a query of its phrase arrives.
    """

    def _rows_of(self, engine, phrase):
        store = engine._store
        return {store.row_of(i) for i in engine.phrase_advertisers[phrase]}

    def _dirty(self, engine):
        return set(engine._columnar_exec.dirty_rows_last_round().tolist())

    def test_a_served_query_diffs_only_its_phrase_rows(self):
        pytest.importorskip("numpy")
        market = small_market()
        engine = make_engine(market, layout="columnar", exec_cache=True)
        loop = ServingEngine(engine, make_traffic(market))
        seen = set()
        for arrival in make_traffic(market).take(40):
            loop.serve_one(arrival)
            rows = self._rows_of(engine, arrival.phrase)
            dirty = self._dirty(engine)
            assert dirty <= rows
            # A row never scored before is always dirty.
            assert rows - seen <= dirty
            seen |= rows

    def test_the_first_query_of_a_phrase_sees_its_new_rows_first(self):
        pytest.importorskip("numpy")
        market = small_market()
        engine = make_engine(market, layout="columnar", exec_cache=True)
        loop = ServingEngine(engine, make_traffic(market))
        phrase_a, phrase_b = next(
            (a, b)
            for a in phrases_of(market)
            for b in phrases_of(market)
            if self._rows_of(engine, b) - self._rows_of(engine, a)
        )
        loop.serve_one(QueryArrival(0, 0.0, phrase_a))
        rows_a = self._rows_of(engine, phrase_a)
        assert self._dirty(engine) == rows_a
        loop.serve_one(QueryArrival(1, 0.1, phrase_b))
        fresh = self._rows_of(engine, phrase_b) - rows_a
        assert fresh <= self._dirty(engine)
        for row in fresh:
            assert engine._columnar_exec.row_epoch(row) == 1


class TestRun:
    def test_totals_are_the_sum_of_history_plus_flush(self):
        market = small_market()
        engine = make_engine(market)
        loop = ServingEngine(engine, make_traffic(market))
        report = loop.run(25)
        assert report.queries == 25
        assert len(report.history) == 25
        assert report.displays == sum(q.displays for q in report.history)
        # The flush settles clicks still in flight at session end, so
        # session money can only exceed the per-query sums.
        assert report.revenue_cents >= sum(
            q.revenue_cents for q in report.history
        )
        assert report.clicks >= sum(q.clicks for q in report.history)

    def test_keep_history_false_keeps_totals_but_no_reports(self):
        market = small_market()
        with_history = ServingEngine(
            make_engine(market), make_traffic(market)
        ).run(20)
        without = ServingEngine(
            make_engine(market), make_traffic(market), keep_history=False
        ).run(20)
        assert without.history == []
        assert without.queries == with_history.queries
        assert without.revenue_cents == with_history.revenue_cents

    def test_rejects_negative_num_queries(self):
        market = small_market()
        loop = ServingEngine(make_engine(market), make_traffic(market))
        with pytest.raises(InvalidAuctionError, match="num_queries"):
            loop.run(-1)

    def test_zero_queries_is_a_clean_empty_session(self):
        market = small_market()
        loop = ServingEngine(make_engine(market), make_traffic(market))
        report = loop.run(0)
        assert report.queries == 0
        assert report.latency.count == 0

    def test_null_collector_leaves_counters_none(self):
        market = small_market()
        engine = make_engine(market, collector=None)
        report = ServingEngine(engine, make_traffic(market)).run(5)
        assert report.counters is None

    def test_outstanding_debt_stays_bounded_over_long_sessions(self):
        """Regression: the default ledger horizon tracks the click
        horizon, so outstanding ads are pruned once their click can no
        longer arrive.  An unbounded ledger made the exact throttle's
        per-tick cost grow with session length (quadratic serving)."""
        market = small_market()
        engine = make_engine(market, collector=None)
        loop = ServingEngine(
            engine, make_traffic(market), keep_history=False
        )
        loop.run(200)
        counts = engine.budget_manager.outstanding_counts()
        # An advertiser is displayed at most once per tick, so its live
        # debt can never exceed the ledger horizon (click horizon + 1).
        assert counts, "no outstanding debt accumulated; test is vacuous"
        assert max(counts.values()) <= engine.click_model.horizon_rounds + 1

    def test_latency_gauges_flushed_from_fake_clock(self):
        market = small_market()
        engine = make_engine(market)
        loop = ServingEngine(
            engine, make_traffic(market), clock=FakeClock(step=0.004)
        )
        report = loop.run(10)
        gauges = engine.collector.gauges
        assert gauges[names.SERVE_P50_MS] == pytest.approx(4.0)
        assert gauges[names.SERVE_P99_MS] == pytest.approx(4.0)
        assert gauges[names.SERVE_QPS] == pytest.approx(250.0)
        assert report.latency.qps == pytest.approx(250.0)
