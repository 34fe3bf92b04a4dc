"""Tests for the end-to-end shared auction engine."""

from __future__ import annotations

import pytest

from repro.core.advertiser import Advertiser
from repro.engine.pipeline import SharedAuctionEngine
from repro.errors import InvalidAuctionError
from repro.instrument import NULL, MetricsCollector, names


def build_engine(advertisers, mode="shared", seed=5, **kwargs):
    phrases = sorted({p for a in advertisers for p in a.phrases})
    return SharedAuctionEngine(
        advertisers,
        slot_factors=[0.3, 0.2],
        search_rates={p: 0.8 for p in phrases},
        mode=mode,
        seed=seed,
        **kwargs,
    )


@pytest.fixture
def population(simple_market):
    advertisers, _model, _phrases = simple_market
    return advertisers


class TestConstruction:
    def test_unknown_mode_rejected(self, population):
        with pytest.raises(InvalidAuctionError):
            build_engine(population, mode="turbo")

    def test_duplicate_ids_rejected(self, population):
        with pytest.raises(InvalidAuctionError):
            build_engine(population + [population[0]])

    def test_phrase_map_built_from_interests(self, population):
        engine = build_engine(population)
        assert set(engine.phrase_advertisers) == {"boots", "heels", "sandals"}
        assert 0 in engine.phrase_advertisers["boots"]


class TestRoundResolution:
    def test_unknown_phrase_rejected(self, population):
        engine = build_engine(population)
        with pytest.raises(InvalidAuctionError):
            engine.run_round(["unicorns"])

    def test_empty_round_is_cheap(self, population):
        engine = build_engine(population)
        report = engine.run_round([])
        assert report.merges == 0
        assert report.displays == 0

    def test_displays_bounded_by_slots(self, population):
        engine = build_engine(population)
        report = engine.run_round(["boots", "heels"])
        assert report.displays <= 2 * 2  # two phrases, two slots

    def test_shared_and_unshared_produce_identical_outcomes(self, population):
        """The core exactness guarantee: sharing changes work, never
        results."""
        shared = build_engine(population, mode="shared", seed=9)
        unshared = build_engine(
            population, mode="unshared", seed=9, layout="object"
        )
        report_s = shared.run(40)
        report_u = unshared.run(40)
        assert report_s.revenue_cents == report_u.revenue_cents
        assert report_s.displays == report_u.displays
        assert report_s.clicks == report_u.clicks
        assert report_s.forgiven_cents == report_u.forgiven_cents

    def test_shared_mode_scans_fewer_advertisers(self):
        shared_phrases = frozenset({"boots", "heels"})
        advertisers = [
            Advertiser(i, bid=1.0 + i * 0.01, phrases=shared_phrases)
            for i in range(20)
        ] + [
            Advertiser(100 + i, bid=1.0, phrases=frozenset({"boots"}))
            for i in range(4)
        ]
        shared = build_engine(
            advertisers, mode="shared", seed=1, layout="columnar"
        )
        unshared = build_engine(
            advertisers, mode="unshared", seed=1, layout="object"
        )
        rounds = 20
        report_s = shared.run(rounds)
        report_u = unshared.run(rounds)
        assert report_s.scans < report_u.scans

    def test_negative_round_count_rejected_before_any_state(self, population):
        engine = build_engine(population)
        twin = build_engine(population)
        engine.run_round(["boots", "heels"])
        twin.run_round(["boots", "heels"])
        rng_state = engine._rng.getstate()
        with pytest.raises(InvalidAuctionError, match="rounds must be >= 0"):
            engine.run(-3)
        assert engine._round_index == 1
        assert engine._rng.getstate() == rng_state
        # run(0) still flushes what the round left in flight.
        report = engine.run(0)
        assert report.rounds == 0
        assert (
            report.revenue_cents, report.forgiven_cents, report.clicks
        ) == twin.settle_remaining_clicks()

    def test_work_counters_populate(self, population):
        engine = build_engine(population)
        report = engine.run(10)
        assert report.rounds == 10
        assert report.merges >= 0
        assert len(report.history) == 10


class TestTheRoundClock:
    """Batch rounds, served queries and ``run`` share one tick counter:
    each takes the next index and reports only its own phrases."""

    @pytest.mark.parametrize("layout", ("object", "columnar"))
    @pytest.mark.parametrize("mode", ("unshared", "shared", "shared-sort"))
    def test_every_round_and_query_takes_the_next_tick(
        self, population, mode, layout
    ):
        if layout == "columnar":
            pytest.importorskip("numpy")
        engine = build_engine(population, mode=mode, layout=layout)
        reports = [
            engine.run_round(["boots", "heels"]),
            engine.serve_query("sandals"),
            engine.run_round([]),
            *engine.run(2).history,
            engine.serve_query("boots"),
        ]
        assert [r.round_index for r in reports] == list(range(6))
        assert [r.occurring_phrases for r in reports[:3]] == [
            ("boots", "heels"), ("sandals",), (),
        ]
        assert reports[5].occurring_phrases == ("boots",)
        for report in reports:
            assert set(report.allocations) <= set(report.occurring_phrases)
            assert report.displays == sum(
                map(len, report.allocations.values())
            )


class TestBudgets:
    def test_budget_exhaustion_stops_spending(self):
        advertisers = [
            Advertiser(
                0, bid=2.0, daily_budget=4.0, phrases=frozenset({"p"})
            ),
            Advertiser(1, bid=1.0, phrases=frozenset({"p"})),
        ]
        engine = SharedAuctionEngine(
            advertisers,
            slot_factors=[0.9],
            search_rates={"p": 1.0},
            mode="shared",
            throttle=True,
            mean_click_delay_rounds=0.0,
            seed=3,
        )
        report = engine.run(200)
        spent = engine.budget_manager.spent_cents(0)
        assert spent <= 400
        assert report.forgiven_cents == 0

    def test_naive_engine_can_forgive_clicks(self):
        """Without throttling, delayed clicks outrun the budget."""
        advertisers = [
            Advertiser(
                0, bid=2.0, ctr_factor=1.0, daily_budget=3.0,
                phrases=frozenset({"p"}),
            ),
            Advertiser(1, bid=1.0, phrases=frozenset({"p"})),
        ]
        naive = SharedAuctionEngine(
            advertisers,
            slot_factors=[0.95],
            search_rates={"p": 1.0},
            mode="shared",
            throttle=False,
            mean_click_delay_rounds=4.0,
            click_horizon_rounds=12,
            seed=8,
        )
        throttled = SharedAuctionEngine(
            advertisers,
            slot_factors=[0.95],
            search_rates={"p": 1.0},
            mode="shared",
            throttle=True,
            mean_click_delay_rounds=4.0,
            click_horizon_rounds=12,
            seed=8,
        )
        report_naive = naive.run(120)
        report_throttled = throttled.run(120)
        assert report_naive.forgiven_cents > 0
        assert report_throttled.forgiven_cents == 0

    def test_gsp_price_never_exceeds_effective_bid(self, population):
        engine = build_engine(population)
        engine.run(30)
        for advertiser in population:
            spent = engine.budget_manager.spent_cents(
                advertiser.advertiser_id
            )
            if advertiser.daily_budget != float("inf"):
                assert spent <= int(advertiser.daily_budget * 100)


class TestStoreUnderARunningEngine:
    """The engine indexed its store once; an edit under it fails loudly
    instead of being half seen (DESIGN.md section 21)."""

    MODES = ("unshared", "shared", "shared-sort")

    @pytest.fixture(params=MODES)
    def engine(self, request, population):
        pytest.importorskip("numpy")
        engine = build_engine(population, mode=request.param, layout="columnar")
        engine.run_round(["boots", "heels"])
        return engine

    def test_column_edits_raise(self, engine, population):
        store = engine._store
        before = [
            column.copy()
            for column in (
                store.bids, store.bid_cents, store.ctr_factors,
                store.budget_cents,
            )
        ]
        with pytest.raises(ValueError, match="read-only"):
            store.set_bid(0, 9.0)
        with pytest.raises(ValueError, match="read-only"):
            store.set_budget(0, 1.0)
        with pytest.raises(ValueError, match="read-only"):
            store.absorb(population[0].with_bid(9.0))
        for column, was in zip(
            (store.bids, store.bid_cents, store.ctr_factors, store.budget_cents),
            before,
        ):
            assert (column == was).all()
        # Nothing moved: the engine carries on.
        assert engine.run_round(["boots"]).occurring_phrases == ("boots",)

    def test_a_renumbered_store_stops_the_engine(self, engine):
        engine._store.add_advertiser(
            Advertiser(9, bid=1.0, ctr_factor=1.0, phrases=frozenset({"boots"}))
        )
        with pytest.raises(InvalidAuctionError, match="renumbered"):
            engine.run_round(["boots"])
        with pytest.raises(InvalidAuctionError, match="renumbered"):
            engine.serve_query("heels")

    def test_a_store_of_ones_own_stays_writable(self, population):
        pytest.importorskip("numpy")
        from repro.core.columnar import ColumnarStore

        build_engine(population, mode="unshared", layout="columnar")
        store = ColumnarStore.from_advertisers(population)
        store.set_bid(0, 9.0)
        assert store.bid_cents[store.row_of(0)] == 900


class TestStageTimers:
    """``engine.stage.*``: on an enabled collector only."""

    STAGES = (
        names.ENGINE_STAGE_DELIVER_TIMER,
        names.ENGINE_STAGE_SCORE_TIMER,
        names.ENGINE_STAGE_RANK_TIMER,
        names.ENGINE_STAGE_ALLOCATE_TIMER,
    )

    @pytest.mark.parametrize("layout", ("object", "columnar"))
    def test_one_span_per_stage_per_round_and_tick(self, population, layout):
        if layout == "columnar":
            pytest.importorskip("numpy")
        collector = MetricsCollector()
        engine = build_engine(
            population, mode="unshared", layout=layout, collector=collector
        )
        phrases = sorted(engine.phrase_advertisers)
        for _ in range(5):
            engine.run_round(phrases)
        engine.serve_query(phrases[0])
        engine.run_round([])  # nothing occurs: clicks are still delivered
        timers = collector.timers
        assert [timers[name].count for name in self.STAGES] == [7, 6, 6, 6]
        assert sum(timers[name].total_s for name in self.STAGES) <= (
            timers[names.ENGINE_ROUND_TIMER].total_s
        )
        assert {name for name in timers if name.startswith("engine.stage.")} == (
            set(self.STAGES)
        )

    @pytest.mark.parametrize("layout", ("object", "columnar"))
    @pytest.mark.parametrize("mode", ("unshared", "shared", "shared-sort"))
    def test_every_mode_scores_then_ranks_each_round(
        self, population, mode, layout
    ):
        if layout == "columnar":
            pytest.importorskip("numpy")
        collector = MetricsCollector()
        engine = build_engine(
            population, mode=mode, layout=layout, collector=collector
        )
        phrases = sorted(engine.phrase_advertisers)
        for _ in range(3):
            engine.run_round(phrases)
        timers = collector.timers
        assert timers[names.ENGINE_STAGE_SCORE_TIMER].count == 3
        assert timers[names.ENGINE_STAGE_RANK_TIMER].count == 3

    def test_the_null_collector_path_starts_no_timer(
        self, population, monkeypatch
    ):
        def no_timer(self, name):
            raise AssertionError(f"timer({name!r}) on the null collector")

        monkeypatch.setattr(type(NULL), "timer", no_timer, raising=False)
        engine = build_engine(population, mode="unshared")
        phrases = sorted(engine.phrase_advertisers)
        assert engine.run_round(phrases).displays
        engine.serve_query(phrases[0])
        # The stage methods are the class's own: nothing was rebound.
        assert "_allocate_round" not in vars(engine)
