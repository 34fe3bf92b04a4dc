"""The books cost *who* moved, not how often (DESIGN 19).

Beside ``test_budget_books_cost.py`` (a tick costs what changed): a
round's displays are one booking call that notes each advertiser once
for ``drain_book_changes`` and queues one expiry entry per run.  Counts
of movers and queue entries, never time.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.budgets.outstanding import NoDecay, OutstandingLedger
from repro.core.advertiser import Advertiser
from repro.engine import budget_manager
from repro.engine.budget_manager import BudgetManager
from repro.engine.click_model import DelayedClickModel
from repro.engine.pipeline import SharedAuctionEngine
from repro.workloads.fig4 import fig4_market

LAYOUTS = ("object", "columnar")


def _layout(layout):
    if layout == "columnar":
        pytest.importorskip("numpy")
    return layout


def _displays(count, num_advertisers, seed=3):
    """``count`` displays over advertisers ``0 .. num_advertisers - 1``,
    each of whom shows at least once."""
    rng = random.Random(seed)
    advertisers = [
        rng.randrange(num_advertisers) for _ in range(count - num_advertisers)
    ] + list(range(num_advertisers))
    rng.shuffle(advertisers)
    prices = [rng.randrange(1, 200) for _ in advertisers]
    ctrs = [rng.choice((0.03, 0.1, 0.2, 0.3)) for _ in advertisers]
    return advertisers, prices, ctrs


def _budgeted(num_advertisers):
    """Budgets that never bind, for ``0 .. num_advertisers - 1``."""
    return dict.fromkeys(range(num_advertisers), 10**9)


def _movers(manager):
    """The ids ``drain_book_changes`` hands out (and clears)."""
    return manager.drain_book_changes()[0]


class TestOneRoundOneBooking:
    def _round(self):
        return _displays(200, 20)

    def test_200_displays_over_20_advertisers(self):
        manager = BudgetManager(_budgeted(20), NoDecay(horizon=17))
        advertisers, prices, ctrs = self._round()
        handles = manager.record_displays(advertisers, prices, ctrs, 4)
        assert len(handles) == 200
        # One id per distinct advertiser, not one per display.
        assert sorted(_movers(manager)) == list(range(20))
        # Every CTR is positive, so an advertiser's ads die together:
        # one expiry entry each, not one per ad.
        assert len(manager._expiry) <= 20
        assert manager.debt_carriers == set(range(20))
        assert manager.expire_outstanding(4 + 16) == 0
        assert _movers(manager) == []
        assert manager.expire_outstanding(4 + 17) == 200
        assert sorted(_movers(manager)) == list(range(20))
        assert not manager._expiry and not manager.debt_carriers

    def test_handles_name_the_ads_of_the_batch_in_order(self):
        manager = BudgetManager(_budgeted(20), NoDecay(horizon=17))
        advertisers, prices, ctrs = self._round()
        handles = manager.record_displays(advertisers, prices, ctrs, 4)
        for advertiser in range(20):
            mine = [
                (handle, price, ctr)
                for who, handle, price, ctr in zip(
                    advertisers, handles, prices, ctrs
                )
                if who == advertiser
            ]
            assert [
                (ad.handle, ad.price_cents, ad.base_ctr)
                for ad in manager._ledgers[advertiser].ads
            ] == mine

    def test_a_tick_of_clicks_is_one_mover_per_payer(self):
        manager = BudgetManager({1: 150, 2: 1_000}, NoDecay(horizon=17))
        handles = manager.record_displays(
            [1, 2, 1, 1], [100, 40, 100, 100], [0.5] * 4, 0
        )
        _movers(manager)
        totals = manager.settle_clicks(
            [
                (1, 100, 0, handles[0]),
                (2, 40, 0, handles[1]),
                (1, 100, 0, handles[2]),
            ]
        )
        # Charged in order against one shrinking budget: 100 + 40 + 50,
        # and the third click's other 50 forgiven.
        assert totals == (190, 50)
        assert manager.spent_snapshot() == {1: 150, 2: 40}
        assert sorted(_movers(manager)) == [1, 2]
        assert manager.outstanding_counts() == {1: 1}


class TestUnbudgetedRoundBooksNothing:
    """An advertiser without a budget keeps no books (DESIGN 17)."""

    @pytest.fixture
    def booked(self, monkeypatch):
        """Counts every ``OutstandingLedger`` call, by name, and every
        expiry-heap push of the budget manager."""
        calls = Counter()
        for name, method in list(vars(OutstandingLedger).items()):
            if callable(method):

                def counted(*args, name=name, method=method, **kwargs):
                    calls[name] += 1
                    return method(*args, **kwargs)

                monkeypatch.setattr(OutstandingLedger, name, counted)
        pushed = []
        push = budget_manager.heappush
        monkeypatch.setattr(
            budget_manager,
            "heappush",
            lambda heap, item: pushed.append(item) or push(heap, item),
        )
        return calls, pushed

    def _session(self, budgets):
        manager = BudgetManager(budgets, NoDecay(horizon=17))
        advertisers, prices, ctrs = _displays(720, 60)
        handles = manager.record_displays(advertisers, prices, ctrs, 4)
        clicks = list(zip(advertisers, prices, [4] * 720, handles))[::3]
        totals = manager.settle_clicks(clicks)
        manager.expire_outstanding(4 + 17)
        return manager, handles, clicks, totals

    def test_a_720_display_round_touches_no_ledger(self, booked):
        calls, pushed = booked
        manager, handles, clicks, totals = self._session({})
        assert handles == [-1] * 720
        assert not calls
        assert not pushed
        assert manager.drain_book_changes() == ([], [], [], [])
        assert not manager.debt_carriers
        assert manager.earliest_dead_round == float("inf")
        # Every click is charged in full, and the spend is still kept.
        spent = Counter()
        for advertiser_id, price, _, _ in clicks:
            spent[advertiser_id] += price
        assert totals == (sum(spent.values()), 0)
        assert manager.spent_snapshot() == dict(sorted(spent.items()))

    def test_the_same_round_budgeted_books_every_ad(self, booked):
        calls, pushed = booked
        manager, handles, _, _ = self._session(_budgeted(60))
        assert -1 not in handles
        assert calls["add"] == 720
        assert 60 <= len(pushed) <= 2 * 60
        assert sorted(_movers(manager)) == list(range(60))

    def test_an_unbudgeted_engine_round_moves_no_row(self):
        pytest.importorskip("numpy")
        advertisers, rates = fig4_market(
            num_queries=12, num_advertisers=30, median_budget_cents=0, seed=2
        )
        engine = SharedAuctionEngine(
            advertisers, [0.3, 0.2, 0.1], rates,
            mode="unshared", layout="columnar", seed=2,
        )
        displays = clicks = 0
        for _ in range(20):
            report = engine.run_round()
            displays += report.displays
            clicks += report.clicks
            assert engine._sync_book_columns() == 0
            assert not engine.budget_manager.debt_carriers
        assert displays and clicks
        assert sum(engine.budget_manager.spent_snapshot().values()) > 0


class TestOneClickModelCallPerStage:
    """A round's displays reach the click model in one call, and its
    clicks settle as rows into totals: no ``ChargeResult`` is built."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Counts the click model's two entry points and every
        ``ChargeResult`` the budget manager constructs."""
        calls = Counter()
        for owner, name in (
            (DelayedClickModel, "record_displays"),
            (DelayedClickModel, "record_display"),
            (budget_manager, "ChargeResult"),
        ):

            def counted(*args, name=name, original=vars(owner)[name], **kw):
                calls[name] += 1
                return original(*args, **kw)

            monkeypatch.setattr(owner, name, counted)
        return calls

    @pytest.mark.parametrize("median_budget_cents", (0, 1500))
    def test_batch_rank_rounds_and_served_ticks(
        self, calls, median_budget_cents
    ):
        pytest.importorskip("numpy")
        # batch_rank's market (unlimited budgets), and the same shape
        # budgeted: each round is every phrase, ~720 displays.
        advertisers, rates = fig4_market(
            num_queries=60, num_advertisers=250, num_components=8,
            median_budget_cents=median_budget_cents, seed=0,
        )
        engine = SharedAuctionEngine(
            advertisers, [0.3, 0.2, 0.1], rates,
            mode="shared", layout="columnar", exec_cache=True, seed=11,
        )
        phrases = sorted(rates)
        displays = clicks = 0
        for _ in range(6):
            calls.clear()
            report = engine.run_round(phrases)
            assert calls == {"record_displays": 1}
            displays += report.displays
            clicks += report.clicks
        assert displays > 6 * 300 and clicks
        for phrase in phrases[:10]:
            calls.clear()
            engine.serve_query(phrase)
            assert calls == {"record_displays": 1}
        calls.clear()
        assert engine.settle_remaining_clicks()[2]
        assert not calls


def _varying_rounds(phrases, rounds, seed):
    rng = random.Random(seed)
    return [
        [phrase for phrase in phrases if rng.random() < 0.5] or [phrases[0]]
        for _ in range(rounds)
    ]


def _effective_bids_of_each_round(engine):
    """Wrap stage 3 so every round hands it its stage-2 ``b̂`` map."""
    seen = []
    rank = engine._rank_phrases

    def recording_rank(phrases, scores, effective_bid_cents, report):
        seen.append(dict(effective_bid_cents.items()))
        return rank(phrases, scores, effective_bid_cents, report)

    engine._rank_phrases = recording_rank
    return seen


class TestEffectiveBidFollowsTheBooks:
    """A multiplicity that moves moves ``b̂`` only where a budget binds."""

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_unlimited_budgets_bid_their_bid_whatever_m_does(self, layout):
        # Every round draws other phrases, so most multiplicities move
        # every round -- and with unlimited budgets move no bid, and
        # leave no books to drain.
        advertisers, rates = fig4_market(
            num_queries=12, num_advertisers=30, median_budget_cents=0, seed=2
        )
        engine = SharedAuctionEngine(
            advertisers, [0.3, 0.2, 0.1], rates,
            mode="shared", layout=_layout(layout), seed=2,
        )
        bid_cents = {a.advertiser_id: round(a.bid * 100) for a in advertisers}
        seen = _effective_bids_of_each_round(engine)
        moved_multiplicity = 0
        last_m = {}
        for occurring in _varying_rounds(sorted(rates), 15, seed=9):
            engine.run_round(occurring)
            m = Counter(
                advertiser_id
                for phrase in occurring
                for advertiser_id in engine.phrase_advertisers[phrase]
            )
            assert seen.pop() == {i: float(bid_cents[i]) for i in m}
            assert engine.budget_manager.drain_book_changes() == (
                [], [], [], []
            )
            moved_multiplicity += sum(
                1 for i in m if i in last_m and last_m[i] != m[i]
            )
            last_m.update(m)
        assert moved_multiplicity > 100, "the rounds never moved an m_i"

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_a_budget_bound_bid_moves_with_its_multiplicity(self, layout):
        # b = 100, beta = 200: m = 1 -> 3 makes m*b > beta, so b-hat
        # drops from b to about beta/3 (a little less: it owes on its
        # outstanding ads, and owes more after each round); back at
        # m = 1 the quick test clears and b-hat is b again.  The unbudgeted
        # rivals' bids never move.  Slot factors this small mean no
        # click is ever drawn, so the budget itself stays put.
        phrases = ("p1", "p2", "p3")
        everywhere = frozenset(phrases)
        engine = SharedAuctionEngine(
            [
                Advertiser(1, bid=1.0, ctr_factor=0.5, daily_budget=2.0,
                           phrases=everywhere),
                Advertiser(2, bid=0.05, ctr_factor=0.5, phrases=everywhere),
                Advertiser(3, bid=0.01, ctr_factor=0.5, phrases=everywhere),
            ],
            [1e-9, 1e-10], {phrase: 1.0 for phrase in phrases},
            mode="shared", layout=_layout(layout), seed=5,
        )
        seen = _effective_bids_of_each_round(engine)

        def bids(occurring):
            report = engine.run_round(occurring)
            assert not report.clicks
            effective = seen.pop()
            assert (effective[2], effective[3]) == (5.0, 1.0)
            return effective[1]

        assert bids(["p1"]) == 100.0
        throttled = bids(["p1", "p2", "p3"])
        assert 60.0 < throttled < 200.0 / 3
        again = bids(["p1", "p2", "p3"])  # same m, more outstanding ads
        assert 60.0 < again <= throttled
        assert bids(["p1"]) == 100.0
        assert bids(["p1"]) == 100.0
