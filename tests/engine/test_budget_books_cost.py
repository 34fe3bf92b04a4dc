"""Cost bounds of the budget books' display blocks (ROADMAP item 10).

The per-tick bookkeeping must cost what changed -- blocks that expired,
clicks that settled, debt carriers that occur -- not the number of
advertisers on file.  These tests count calls and reads, never time.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.budgets import throttle
from repro.budgets.throttle import exact_throttled_bid
from repro.engine import pipeline
from repro.engine.budget_manager import BudgetManager
from repro.engine.pipeline import RoundReport, SharedAuctionEngine
from repro.instrument import MetricsCollector, names
from repro.reference import ReferenceEngine
from repro.workloads.generator import MarketConfig, generate_market

from .test_standing_columns_machine import COLUMNS, _row_from_the_books


def _scored(engine, phrases, round_index, report=None):
    """Run stage 2 and read the ``b̂`` it returns, by id."""
    if report is None:
        report = RoundReport(round_index, tuple(phrases))
    rows, bids, _ = engine._effective_scores(phrases, round_index, report)
    return dict(zip(engine._store.ids[rows].tolist(), bids.tolist()))

class _Unread:
    """Stands in for a block that must not be read."""

    def __getattr__(self, name):
        raise AssertionError(f"read {name} of a block that was not due")


def _books(idle_advertisers: int) -> BudgetManager:
    """Five advertisers with two ads each in round 0's block, plus idle
    advertisers in round 3's.

    Half of the idle advertisers hold a live ad, half were emptied by a
    settlement.  Every advertiser is budgeted: an unbudgeted one writes
    no cell at all.
    """
    ids = [*range(5), *range(100, 100 + idle_advertisers)]
    manager = BudgetManager(dict.fromkeys(ids, 10**6), 3)
    for advertiser_id in range(5):
        manager.record_display(advertiser_id, 10, 0.5, 0)
        manager.record_display(advertiser_id, 20, 0.5, 0)
    for advertiser_id in range(100, 100 + idle_advertisers):
        handle = manager.record_display(advertiser_id, 30, 0.5, 3)
        if advertiser_id % 2:
            manager.settle_click(advertiser_id, 30, 3, handle=handle)
    return manager


class TestBlockCosts:
    @pytest.mark.parametrize("idle_advertisers", (10, 100))
    def test_an_expiry_drops_whole_blocks_and_reads_no_other(
        self, idle_advertisers
    ):
        manager = _books(idle_advertisers)
        assert list(manager._blocks) == [0, 3]
        live = manager._blocks[3]
        manager._blocks[3] = _Unread()
        assert manager.expire_outstanding(2) == 0
        # Round 0's block is due: every unsettled cell of it, one mover
        # per advertiser, whatever the idle advertisers hold.
        assert manager.expire_outstanding_by_advertiser(3) == dict.fromkeys(
            range(5), 2
        )
        assert list(manager._blocks) == [3]
        # Nothing left that is due: the next tick is free.
        assert manager.expire_outstanding(3) == 0
        assert manager.expire_outstanding(5) == 0
        manager._blocks[3] = live
        assert manager.expire_outstanding(6) == idle_advertisers // 2
        assert not manager._blocks

    def test_counts_and_drains_read_the_running_values_only(self):
        manager = _books(100)
        manager.expire_outstanding(3)
        manager.drain_book_changes()
        manager._blocks = {3: _Unread()}
        counts = manager.outstanding_counts()
        # The idle advertisers that still hold their ad; nobody else.
        assert counts == dict.fromkeys(range(100, 200, 2), 1)
        assert set(manager.debt_carriers) == set(counts)
        assert manager.liability_cents(100) == 30
        assert manager.liability_cents(101) == 0

    def test_a_throttle_problem_reads_only_live_blocks(self):
        manager = BudgetManager({1: 1_000}, 3)
        for round_index in range(6):
            manager.record_displays(
                [1, 1], [10 + round_index, 20], [0.5, 0.25], round_index
            )
        # Rounds 0-2 are dead at round 5 but not yet expired.
        for dead in (0, 1, 2):
            manager._blocks[dead] = _Unread()
        assert manager.throttle_problem(1, 100, 1, 5).outstanding == (
            (13, 0.5), (20, 0.25), (14, 0.5), (20, 0.25), (15, 0.5),
            (20, 0.25),
        )

    def test_an_unbudgeted_display_writes_no_cell(self):
        manager = BudgetManager({1: 1_000}, 3)
        assert manager.record_displays([7, 8], [10, 20], [0.5, 0.5], 0) == [
            -1, -1,
        ]
        assert not manager._blocks
        assert manager.record_displays(
            [7, 1, 8, 1], [10, 20, 30, 40], [0.5, 0.4, 0.3, 0.2], 1
        ) == [-1, 0, -1, 1]
        (block,) = manager._blocks.values()
        assert block == {1: {0: (20, 0.4), 1: (40, 0.2)}}
        assert block.size == 2

    def test_a_serving_tick_reads_no_block_when_no_budget_binds(
        self, monkeypatch
    ):
        # One phrase per tick on a market whose budgets never bind:
        # every quick test clears, so no throttle problem is built.
        built = []
        build = BudgetManager.throttle_problem
        monkeypatch.setattr(
            BudgetManager, "throttle_problem",
            lambda *args: built.append(args) or build(*args),
        )
        advertisers, rates = _market(seed=3, median_budget_cents=10**9)
        engine = SharedAuctionEngine(
            advertisers, [0.3, 0.2, 0.1], rates,
            mode="unshared", seed=3,
        )
        phrases = sorted(engine.phrase_advertisers)
        for tick in range(60):
            engine.serve_query(phrases[tick % len(phrases)])
        manager = engine.budget_manager
        assert manager.debt_carriers
        assert not built
        # One block per tick that displayed, the horizon's worth of them.
        assert len(manager._blocks) <= manager._horizon + 1


def _market(seed: int, median_budget_cents: int):
    """A 27-advertiser market; ``median_budget_cents=0`` is unbudgeted."""
    market = generate_market(
        MarketConfig(
            num_categories=3,
            phrases_per_category=3,
            specialists_per_category=5,
            generalists=3,
            generalist_categories=2,
            median_budget_cents=median_budget_cents,
            seed=seed,
        )
    )
    return market.advertisers, market.search_rates


def _columns_from_the_books(engine) -> dict:
    """The standing score columns, recomputed for every advertiser from
    the manager's public accessors."""
    rows = [
        _row_from_the_books(engine, advertiser_id, row)
        for row, advertiser_id in enumerate(engine._store.ids.tolist())
    ]
    return {name: list(cells) for name, cells in zip(COLUMNS, zip(*rows))}


def _columns(engine) -> dict:
    return {name: getattr(engine, name).tolist() for name in COLUMNS}


class TestStandingColumns:
    @pytest.mark.parametrize("mode", ("unshared", "shared", "shared-sort"))
    def test_columns_equal_the_books_after_every_round(self, mode):
        advertisers, rates = _market(seed=11, median_budget_cents=600)
        engine = SharedAuctionEngine(
            advertisers, [0.3, 0.2, 0.1], rates,
            mode=mode, seed=11,
        )
        moved = throttled = 0
        for _ in range(50):
            report = engine.run_round()
            if report.occurring_phrases:
                # Clicks settle before scoring and displays charge
                # nothing, so what scoring left behind of the budgets
                # is current; the round's displays are still to sync.
                expected = _columns_from_the_books(engine)
                found = _columns(engine)
                for name in ("_cap_by_row", "_base_score_by_row"):
                    assert found[name] == expected[name]
            moved += report.clicks
            throttled += report.debt_carriers_scored
        assert moved, "the session never settled a click"
        assert throttled, "no budget ever bound: the session was too easy"
        revenue, _, clicks = engine.settle_remaining_clicks()
        assert clicks and revenue
        # The flush settled outside any round; the next sync picks up
        # exactly what it and the last round's displays moved.
        assert _columns(engine) != _columns_from_the_books(engine)
        pending = len(engine.budget_manager._moved)
        assert engine._sync_book_columns() == pending > 0
        assert _columns(engine) == _columns_from_the_books(engine)
        assert engine._sync_book_columns() == 0


@pytest.fixture
def store_sized_calls(monkeypatch):
    """Counts ``np.bincount`` / ``np.flatnonzero`` calls whose input or
    output is as long as ``size[0]`` (set it to the store's size)."""
    import numpy as np

    calls: Counter = Counter()
    size = [None]
    bincount, flatnonzero = np.bincount, np.flatnonzero

    def counted_bincount(x, *args, minlength=0, **kwargs):
        if max(len(x), minlength) >= size[0]:
            calls["bincount"] += 1
        return bincount(x, *args, minlength=minlength, **kwargs)

    def counted_flatnonzero(a):
        if len(a) >= size[0]:
            calls["flatnonzero"] += 1
        return flatnonzero(a)

    monkeypatch.setattr(np, "bincount", counted_bincount)
    monkeypatch.setattr(np, "flatnonzero", counted_flatnonzero)
    return calls, size


class TestTickCostsMembersAndMovers:
    """Stage 2 of a one-phrase tick: O(members + movers), not O(store)."""

    def _engine(self, **kw):
        advertisers, rates = _market(seed=11, median_budget_cents=600)
        engine = SharedAuctionEngine(
            advertisers, [0.3, 0.2, 0.1], rates,
            mode="unshared", seed=11, **kw,
        )
        return engine, sorted(engine.phrase_advertisers)

    def test_no_store_sized_pass(self, store_sized_calls):
        calls, size = store_sized_calls
        engine, phrases = self._engine()
        size[0] = engine._store.size
        assert all(
            len(engine._store.phrase_rows(phrase)) < size[0]
            for phrase in phrases
        )
        for tick in range(40):
            engine.serve_query(phrases[tick % len(phrases)])
            engine.run_round([phrases[-1 - tick % len(phrases)]])
        assert not calls
        # The control: a round of several phrases makes three passes at
        # least as long as the store.  Stage 2 counts memberships by row
        # (a bincount over the store) and lists the round's rows (a
        # flatnonzero over the counts); stage 3's round scan sizes its
        # segments (a bincount over the round's cells, here more than
        # the store's rows).
        cells = sum(len(engine._store.phrase_rows(p)) for p in phrases[:3])
        assert cells >= size[0]
        engine.run_round(phrases[:3])
        assert calls == {"bincount": 2, "flatnonzero": 1}

    def test_exactly_the_drained_movers_are_rederived(self, monkeypatch):
        engine, phrases = self._engine(collector=MetricsCollector())
        manager = engine.budget_manager
        store = engine._store
        drained = []
        drain = manager.drain_book_changes

        def recording_drain():
            changes = drain()
            drained.append(changes[0])
            return changes

        monkeypatch.setattr(manager, "drain_book_changes", recording_drain)
        lookups = []
        row_of = store.row_of
        monkeypatch.setattr(
            store, "row_of",
            lambda advertiser_id: lookups.append(advertiser_id)
            or row_of(advertiser_id),
        )
        synced = rewritten = 0
        for tick in range(60):
            before = _columns(engine)
            del lookups[:]
            report = engine.serve_query(phrases[tick % len(phrases)])
            (movers,) = drained
            del drained[:]
            # One row lookup per mover, in the drain's order, before
            # stage 4 prices the tick's slots off the same accessor.
            assert lookups[: len(movers)] == movers
            assert (report.counters or {}).get(
                names.COLUMNAR_BOOK_ROWS_SYNCED, 0
            ) == len(movers)
            after = _columns(engine)
            mover_rows = {store.row_of(advertiser_id) for advertiser_id in movers}
            for name in COLUMNS:
                changed = {
                    row
                    for row, (old, new) in enumerate(
                        zip(before[name], after[name])
                    )
                    if old != new
                }
                assert changed <= mover_rows
                rewritten += len(changed)
            synced += len(movers)
        assert synced > 60 and rewritten > 60

    def test_a_tick_in_which_nobody_moved_rederives_nothing(self, monkeypatch):
        engine, phrases = self._engine()
        store = engine._store
        engine.serve_query(phrases[0])
        engine._sync_book_columns()
        store.phrase_rows(phrases[1])
        # Nothing was booked since: a scoring stage now reads, only.
        lookups = []
        for name in ("row_of", "rows_of"):
            monkeypatch.setattr(
                store, name, lambda *args, name=name: lookups.append(name)
            )
        before = _columns(engine)
        report = RoundReport(1, (phrases[1],))
        engine._effective_scores((phrases[1],), 1, report)
        assert not lookups
        assert _columns(engine) == before


class TestStandingThrottleProblems:
    """Stage 2 gathers a carrier's cells and runs the Section IV DP for one
    whose books moved since it was last scored, and for nobody else."""

    def _engine(self, **kw):
        advertisers, rates = _market(seed=5, median_budget_cents=600)
        engine = SharedAuctionEngine(
            advertisers, [0.3, 0.2, 0.1], rates,
            mode="unshared", seed=5, **kw,
        )
        return engine, sorted(engine.phrase_advertisers)

    @staticmethod
    def _multiplicity(engine, phrases) -> dict:
        """``{advertiser_id: m}`` over the advertisers of ``phrases``."""
        return Counter(
            advertiser_id
            for phrase in phrases
            for advertiser_id in engine.phrase_advertisers[phrase]
        )

    @staticmethod
    def _from_scratch(engine, advertiser_id, m, round_index):
        """The problem the books give now, as the parent's stage built it."""
        store = engine._store
        return engine.budget_manager.throttle_problem(
            advertiser_id,
            int(store.bid_cents[store.row_of(advertiser_id)]),
            m,
            round_index,
        )

    @pytest.fixture
    def books_read(self, monkeypatch):
        """What a stretch of calls read of the books: ``(advertiser_id,
        problem)`` per problem built, and the problems the array DP was
        run over."""
        read = {"built": [], "array": []}
        build = BudgetManager.throttle_problem
        kernel = throttle.min_beta_s_array

        def counted_build(manager, advertiser_id, *args):
            problem = build(manager, advertiser_id, *args)
            read["built"].append((advertiser_id, problem))
            return problem

        def counted_kernel(problem):
            read["array"].append(problem)
            return kernel(problem)

        monkeypatch.setattr(BudgetManager, "throttle_problem", counted_build)
        monkeypatch.setattr(throttle, "min_beta_s_array", counted_kernel)
        return read

    def test_a_round_rebuilds_first_sights_and_movers_only(
        self, books_read, monkeypatch
    ):
        collector = MetricsCollector()
        engine, _ = self._engine(collector=collector)
        manager = engine.budget_manager
        store = engine._store
        moved = set()
        drain = manager.drain_book_changes

        def recording_drain():
            changes = drain()
            moved.update(changes[0])
            return changes

        monkeypatch.setattr(manager, "drain_book_changes", recording_drain)
        current = set()  # scored since their books last moved
        hits = arrays = 0
        for _ in range(30):
            for reads in books_read.values():
                del reads[:]
            moved.clear()
            report = engine.run_round()
            if not report.occurring_phrases:
                continue
            # The columns stand as stage 2 left them: who failed the
            # quick test holding ads is who needed an exact bid.
            needed = set()
            for advertiser_id, m in self._multiplicity(
                engine, report.occurring_phrases
            ).items():
                row = store.row_of(advertiser_id)
                if engine._carrying_by_row[row] and (
                    m * engine._cap_by_row[row] > engine._slack_by_row[row]
                ):
                    needed.add(advertiser_id)
            assert len(needed) == report.debt_carriers_scored
            current -= moved
            rebuilt = needed - current
            built = books_read["built"]
            assert sorted(advertiser_id for advertiser_id, _ in built) == (
                sorted(rebuilt)
            )
            assert (report.counters or {}).get(
                names.COLUMNAR_THROTTLE_PROBLEMS_REBUILT, 0
            ) == len(rebuilt)
            # The array DP ran over problems built this round at most.
            for problem in books_read["array"]:
                assert any(problem is fresh for _, fresh in built)
            current |= needed
            hits += len(needed) - len(rebuilt)
            arrays += len(books_read["array"])
        assert hits > 20 and arrays > 5, "the session never reused a problem"
        assert collector.counter(
            names.COLUMNAR_THROTTLE_PROBLEMS_REBUILT
        ) == collector.counter(names.ENGINE_DEBT_CARRIERS_SCORED) - hits

    def test_another_phrase_set_over_the_same_books_reads_neither(
        self, books_read
    ):
        engine, phrases = self._engine()
        for _ in range(12):
            engine.run_round(phrases)
        first = RoundReport(12, tuple(phrases))
        engine._effective_scores(phrases, 12, first)
        assert first.debt_carriers_scored > 3
        for reads in books_read.values():
            del reads[:]
        # Fewer phrases: every m falls or stays, nothing was booked.
        fewer = tuple(phrases[::2])
        report = RoundReport(12, fewer)
        effective = _scored(engine, fewer, 12, report)
        assert 0 < report.debt_carriers_scored <= first.debt_carriers_scored
        assert books_read == {"built": [], "array": []}
        throttled = 0
        for advertiser_id, m in self._multiplicity(engine, fewer).items():
            fresh = self._from_scratch(engine, advertiser_id, m, 12)
            assert effective[advertiser_id] == exact_throttled_bid(fresh)
            throttled += effective[advertiser_id] < fresh.bid_cents
        assert throttled

    def test_a_round_past_an_unexpired_ad_is_scored_from_scratch(self):
        # Nobody ran expiry for round r + horizon: the problems built
        # then drop the ads that died, and so must the bids, kept
        # problem or not.
        engine, phrases = self._engine(click_horizon_rounds=4)
        for _ in range(8):
            engine.run_round(phrases)
        manager = engine.budget_manager
        r = 7  # the last round expiry ran for
        assert r < manager.earliest_dead_round
        report = RoundReport(r, tuple(phrases))
        engine._effective_scores(phrases, r, report)
        kept = dict(engine._standing_problems)
        assert len(kept) == report.debt_carriers_scored > 3
        later = r + manager._horizon
        assert later >= manager.earliest_dead_round
        effective = _scored(engine, phrases, later)
        moved = 0
        for advertiser_id, problem in kept.items():
            fresh = self._from_scratch(
                engine, advertiser_id, problem.num_auctions, later
            )
            assert len(fresh.outstanding) < len(problem.outstanding)
            assert effective[advertiser_id] == exact_throttled_bid(fresh)
            moved += exact_throttled_bid(fresh) != exact_throttled_bid(problem)
        assert moved
        # Nothing was booked: what is kept is still round r's, and round
        # r is still answered from it.
        assert engine._standing_problems == kept
        again = _scored(engine, phrases, r)
        for advertiser_id, problem in kept.items():
            assert again[advertiser_id] == exact_throttled_bid(problem)
            assert engine._standing_problems[advertiser_id] is not problem

    def test_kept_cells_stay_under_the_limit(self, monkeypatch):
        def session(limit):
            monkeypatch.setattr(
                pipeline, "STANDING_THROTTLE_CELL_LIMIT", limit
            )
            collector = MetricsCollector()
            engine, _ = self._engine(collector=collector)
            history = []
            for _ in range(30):
                history.append(engine.run_round().allocations)
                kept = engine._standing_problems.values()
                assert engine._standing_cells == sum(
                    problem.array_cells for problem in kept
                ) <= limit
                arrays = sum(
                    problem._standing[0].size
                    for problem in kept
                    if problem._standing is not None
                )
                assert arrays <= engine._standing_cells
            return history, collector.counter(
                names.COLUMNAR_THROTTLE_PROBLEMS_REBUILT
            )

        roomy, rebuilt_roomy = session(pipeline.STANDING_THROTTLE_CELL_LIMIT)
        tight, rebuilt_tight = session(400)
        none, rebuilt_none = session(0)
        assert roomy == tight == none
        # A problem that does not fit is scored and dropped.
        assert rebuilt_roomy < rebuilt_tight < rebuilt_none


class TestBooksObservability:
    def _run(self, reference=False, **kw):
        advertisers, rates = _market(seed=5, median_budget_cents=600)
        # The reference counts nothing: only the engine gets a collector.
        collector = None if reference else MetricsCollector()
        if collector is not None:
            kw["collector"] = collector
        engine = (ReferenceEngine if reference else SharedAuctionEngine)(
            advertisers, [0.3, 0.2, 0.1], rates,
            mode="unshared", seed=5, click_horizon_rounds=4, **kw,
        )
        return engine, engine.run(30), collector

    def test_report_fields_mirror_the_collector(self):
        engine, report, collector = self._run()
        assert report.expired_ads > 0
        assert report.debt_carriers_scored > 0
        assert report.expired_ads == sum(
            r.expired_ads for r in report.history
        )
        assert collector.counter(names.ENGINE_EXPIRED_ADS) == (
            report.expired_ads
        )
        assert collector.counter(names.ENGINE_DEBT_CARRIERS_SCORED) == (
            report.debt_carriers_scored
        )
        # Plain ints, whatever numpy handed the stage: the CLI dumps
        # the collector as JSON.
        counters = collector.as_dict()["counters"]
        assert counters[names.COLUMNAR_BOOK_ROWS_SYNCED] > 0
        assert {type(value) for value in counters.values()} == {int}
        assert type(report.debt_carriers_scored) is int
        collector.to_json()
        # Displays either get clicked, expire, or are still on the books.
        outstanding = sum(engine.budget_manager.outstanding_counts().values())
        assert report.displays == (
            report.clicks + report.expired_ads + outstanding
        )

    def test_quick_test_skips_are_still_counted_as_fallbacks(self):
        _, report, collector = self._run()
        _, reference, _ = self._run(reference=True)
        fallbacks = reference.debt_carriers_scored
        # Every occurring debt carrier is a fallback (the reference
        # scores each one); the engine's quick test cleared some of them
        # before a problem was built.
        assert fallbacks > report.debt_carriers_scored
        # Pinned on the commit before the standing score columns: 181
        # occurring rows held ads, 121 of them failed the quick test,
        # and every one of those really was throttled.
        assert fallbacks == 181
        assert report.debt_carriers_scored == 121
        assert [r.debt_carriers_scored for r in report.history[:8]] == [
            0, 1, 4, 2, 6, 3, 3, 3,
        ]
        assert collector.counter(names.THROTTLE_EXACT_FALLBACKS) == 121
        assert collector.counter(names.THROTTLE_EXACT_FALLBACKS) <= (
            report.debt_carriers_scored
        )

    def test_the_reference_counts_every_occurring_debt_carrier(self):
        _, columnar, _ = self._run()
        _, reference, _ = self._run(reference=True)
        assert [r.allocations for r in columnar.history] == [
            r.allocations for r in reference.history
        ]
        assert [r.expired_ads for r in columnar.history] == [
            r.expired_ads for r in reference.history
        ]
        # Every occurring row that held ads: pinned on the commit before
        # the standing score columns.
        assert reference.debt_carriers_scored == 181

    def test_unthrottled_engine_scores_no_debt_carrier(self):
        _, report, _ = self._run(throttle=False)
        assert report.expired_ads > 0
        assert report.debt_carriers_scored == 0


class TestLiabilityQuickTest:
    """The O(1) quick test agrees with the reference's exact stage."""

    @pytest.mark.parametrize("dead_price", (1, 150, 10_000))
    def test_dead_unpruned_ads_only_loosen_the_bound(self, dead_price):
        # An ad with zero click probability that no expiry has removed
        # yet is in the running liability but not in omega_l.  However
        # large, it may cost a problem build, never change a bid.
        advertisers, rates = _market(seed=7, median_budget_cents=400)
        phrases = sorted(rates)
        scored = {}
        for layout, build in (
            ("object", ReferenceEngine), ("columnar", SharedAuctionEngine)
        ):
            engine = build(
                advertisers, [0.3, 0.2, 0.1], rates, mode="unshared", seed=7
            )
            for _ in range(6):
                engine.run_round(phrases)
            dead = [advertiser.advertiser_id for advertiser in advertisers[::2]]
            engine.budget_manager.record_displays(
                dead, [dead_price] * len(dead), [0.0] * len(dead), 6
            )
            report = RoundReport(6, tuple(phrases))
            if build is ReferenceEngine:
                effective = engine._throttled_bids(phrases, 6, report)
            else:
                effective = _scored(engine, phrases, 6, report)
            scored[layout] = (effective, report)
        assert scored["object"][0] == scored["columnar"][0]
        assert (
            scored["columnar"][1].debt_carriers_scored
            <= scored["object"][1].debt_carriers_scored
        )
