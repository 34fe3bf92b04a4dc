"""Tests for the end-to-end shared auction engine."""

from __future__ import annotations

import pytest

from repro.core.advertiser import Advertiser
from repro.engine.pipeline import SharedAuctionEngine
from repro.errors import InvalidAuctionError
from repro.instrument import NULL, MetricsCollector, names
from repro.reference import ReferenceEngine


def build_engine(advertisers, mode="shared", seed=5, reference=False, **kwargs):
    """The engine, or with ``reference`` the reference, over
    ``advertisers``."""
    phrases = sorted({p for a in advertisers for p in a.phrases})
    return (ReferenceEngine if reference else SharedAuctionEngine)(
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

    @pytest.mark.parametrize("rate", (float("nan"), -1.0, 7.0, float("inf")))
    @pytest.mark.parametrize(
        "mode,reference",
        [
            ("unshared", False),
            ("shared", False),
            ("shared-sort", False),
            ("shared", True),
        ],
        ids=("unshared", "shared", "shared-sort", "reference"),
    )
    def test_a_search_rate_outside_zero_one_is_rejected(
        self, mode, reference, rate
    ):
        # Every mode refuses it alike, before any mechanism is built (the
        # shared plan used to be the only one to notice).
        advertisers = [
            Advertiser(0, bid=1.0, phrases=frozenset({"a", "b"})),
            Advertiser(1, bid=2.0, phrases=frozenset({"a"})),
        ]
        build = ReferenceEngine if reference else SharedAuctionEngine
        with pytest.raises(InvalidAuctionError, match="search rates"):
            build(advertisers, [0.3, 0.2], {"a": rate, "b": 0.5}, mode=mode)
        # The bounds themselves are rates.
        build(advertisers, [0.3, 0.2], {"a": 0.0, "b": 1.0}, mode=mode)

    @pytest.mark.parametrize(
        "advertisers",
        [[], [Advertiser(0, bid=1.0), Advertiser(1, bid=2.0, daily_budget=5.0)]],
        ids=("no-advertisers", "no-phrases"),
    )
    def test_a_market_with_no_bid_phrases_runs_empty_rounds(self, advertisers):
        # Every mode accepts it alike: the shared plan used to be built
        # anyway, and the planner refuses an instance with no query.
        def report(build, mode):
            engine = build(advertisers, [0.3], {}, mode=mode, seed=3)
            assert engine.phrase_advertisers == {}
            return engine.run(3)

        expected = report(ReferenceEngine, "unshared")
        assert expected.rounds == 3 and expected.auctions == 0
        for mode in ("shared", "shared-sort", "unshared"):
            assert report(SharedAuctionEngine, mode) == expected
            assert report(ReferenceEngine, mode) == expected


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
            population, mode="unshared", seed=9, reference=True
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
        shared = build_engine(advertisers, mode="shared", seed=1)
        unshared = build_engine(
            advertisers, mode="unshared", seed=1, reference=True
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

    @pytest.mark.parametrize(
        "reference", (True, False), ids=("reference", "engine")
    )
    @pytest.mark.parametrize("mode", ("unshared", "shared", "shared-sort"))
    def test_every_round_and_query_takes_the_next_tick(
        self, population, mode, reference
    ):
        engine = build_engine(population, mode=mode, reference=reference)
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
    """The engine indexed its store once; a write under it fails loudly
    instead of being half seen (DESIGN.md section 6), and bids move
    only through ``set_bids``."""

    MODES = ("unshared", "shared", "shared-sort")

    @pytest.fixture(params=MODES)
    def engine(self, request, population):
        engine = build_engine(population, mode=request.param)
        engine.run_round(["boots", "heels"])
        return engine

    @staticmethod
    def _columns(store):
        return (store.bid_cents, store.ctr_factors, store.budget_cents)

    def test_column_writes_raise(self, engine):
        store = engine._store
        before = [column.copy() for column in self._columns(store)]
        engine.set_bids([0], [900])
        before[0][store.row_of(0)] = 900
        for column, was in zip(self._columns(store), before):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 1
            assert (column == was).all()
        # Nothing else moved: the engine carries on.
        assert engine.run_round(["boots"]).occurring_phrases == ("boots",)

    def test_a_refused_write_leaves_the_run_unchanged(self, engine, population):
        # The same engine never poked: every later round is identical.
        untouched = build_engine(population, mode=engine.mode)
        untouched.run_round(["boots", "heels"])
        with pytest.raises(ValueError, match="read-only"):
            engine._store.bid_cents[0] = 900
        with pytest.raises(InvalidAuctionError):
            engine.set_bids([0], [-900])
        for phrases in (["boots"], ["boots", "heels", "sandals"], ["heels"]):
            assert engine.run_round(phrases) == untouched.run_round(phrases)
        assert engine.run(3) == untouched.run(3)

    def test_a_store_of_ones_own_stays_writable(self, population):
        from repro.core.columnar import ColumnarStore

        build_engine(population, mode="unshared")
        store = ColumnarStore.from_advertisers(population)
        store.bid_cents[store.row_of(0)] = 900
        assert store.bid_cents[store.row_of(0)] == 900


class TestSetBids:
    """The one write path: ``set_bids`` on the engine and the reference."""

    @pytest.mark.parametrize("reference", (False, True))
    @pytest.mark.parametrize("cents", (0, 13, 333, 9_000_000))
    def test_an_accepted_bid_moves_its_own_row(self, population, reference, cents):
        engine = build_engine(population, reference=reference)
        engine.set_bids([3], [cents])
        if reference:
            assert engine._bid_cents[3] == cents
            return
        store = engine._store
        fresh = build_engine(population)._store
        row = store.row_of(3)
        expected = fresh.bid_cents.copy()
        expected[row] = cents
        assert (store.bid_cents == expected).all()
        assert (store.ctr_factors == fresh.ctr_factors).all()
        assert (store.budget_cents == fresh.budget_cents).all()
        assert engine._cap_by_row[row] == min(cents, store.budget_cents[row])
        assert engine._base_score_by_row[row] == (
            engine._cap_by_row[row] / 100.0 * store.ctr_factors[row]
        )

    @pytest.mark.parametrize("reference", (False, True))
    @pytest.mark.parametrize(
        "ids,cents",
        [
            ([99], [100]),
            ([3, 3], [100, 200]),
            ([3], [-1]),
            ([3], [1.5]),
            ([3], [float("nan")]),
            ([3], [True]),
            ([3], [2**53]),
            ([3, 0], [100]),
            ([0, 3], [100, -1]),
        ],
    )
    def test_a_refused_bid_writes_nothing(self, population, reference, ids, cents):
        engine = build_engine(population, reference=reference)
        if reference:
            before = dict(engine._bid_cents)
        else:
            columns = (engine._store.bid_cents, engine._cap_by_row)
            before = [column.copy() for column in columns]
        with pytest.raises(InvalidAuctionError):
            engine.set_bids(ids, cents)
        if reference:
            assert engine._bid_cents == before
        else:
            for column, was in zip(columns, before):
                assert (column == was).all()

    @pytest.mark.parametrize("mode", ("unshared", "shared", "shared-sort"))
    def test_a_raised_bid_wins_the_next_round(self, population, mode):
        engine = build_engine(population, mode=mode, exec_cache=mode == "shared")
        reference = build_engine(population, mode=mode, reference=True)
        loser = engine.phrase_advertisers["boots"][-1]
        for target in (engine, reference):
            target.run_round(["boots"])
            target.set_bids([loser], [10_000])
        ours = engine.run_round(["boots"])
        assert ours.allocations == reference.run_round(["boots"]).allocations
        assert ours.allocations["boots"][0][1] == loser


class TestStageTimers:
    """``engine.stage.*``: on an enabled collector only."""

    STAGES = (
        names.ENGINE_STAGE_DELIVER_TIMER,
        names.ENGINE_STAGE_SCORE_TIMER,
        names.ENGINE_STAGE_RANK_TIMER,
        names.ENGINE_STAGE_ALLOCATE_TIMER,
    )

    def test_one_span_per_stage_per_round_and_tick(self, population):
        collector = MetricsCollector()
        engine = build_engine(population, mode="unshared", collector=collector)
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

    @pytest.mark.parametrize("mode", ("unshared", "shared", "shared-sort"))
    def test_every_mode_scores_then_ranks_each_round(self, population, mode):
        collector = MetricsCollector()
        engine = build_engine(population, mode=mode, collector=collector)
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
