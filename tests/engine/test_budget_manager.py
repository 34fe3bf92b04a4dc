"""Tests for the budget manager."""

from __future__ import annotations

import pytest

from repro.budgets.throttle import exact_throttled_bid
from repro.engine.budget_manager import BudgetManager
from repro.errors import BudgetError
from repro.reference import WalkingBooks


class TestBudgets:
    def test_negative_budget_rejected(self):
        with pytest.raises(BudgetError):
            BudgetManager({1: -5})

    def test_remaining_decreases_with_settlement(self):
        manager = BudgetManager({1: 100})
        assert manager.remaining_cents(1) == 100
        result = manager.settle_click(1, 40, display_round=0, handle=-1)
        assert result.charged_cents == 40
        assert result.forgiven_cents == 0
        assert manager.remaining_cents(1) == 60
        assert manager.spent_cents(1) == 40

    def test_forgiveness_beyond_budget(self):
        manager = BudgetManager({1: 30})
        result = manager.settle_click(1, 50, display_round=0, handle=-1)
        assert result.charged_cents == 30
        assert result.forgiven_cents == 20
        assert manager.remaining_cents(1) == 0

    def test_unbudgeted_advertiser_is_effectively_infinite(self):
        manager = BudgetManager({})
        assert manager.remaining_cents(7) == BudgetManager.UNBUDGETED_CENTS
        result = manager.settle_click(7, 1_000, display_round=0, handle=-1)
        assert result.forgiven_cents == 0


class TestUnbudgetedKeepsNoBooks:
    """An advertiser without a budget: β = ∞, so no ledger, no debt."""

    def test_display_gets_the_sentinel_handle_and_no_ledger(self):
        manager = BudgetManager({1: 1_000})
        handles = manager.record_displays(
            [7, 1, 7], [40, 30, 20], [0.5, 0.4, 0.3], round_index=0
        )
        assert handles == [-1, 0, -1]
        assert set(manager.debt_carriers) == {1}
        assert manager.outstanding_counts() == {1: 1}
        assert manager.liability_cents(7) == 0
        assert manager.throttle_problem(7, 60, 3, 0).outstanding == ()
        assert manager.earliest_dead_round < float("inf")

    def test_remaining_is_constant_and_spend_accumulates(self):
        manager = BudgetManager({})
        for price in (1_000, 2_500, 7):
            handle = manager.record_display(7, price, 0.5, round_index=2)
            charge = manager.settle_click(7, price, 2, handle)
            assert charge.charged_cents == price
            assert charge.forgiven_cents == 0
            assert manager.remaining_cents(7) == BudgetManager.UNBUDGETED_CENTS
        assert manager.spent_cents(7) == 3_507
        assert manager.spent_snapshot() == {7: 3_507}
        # Nothing was queued for expiry and nothing moved.
        assert manager.earliest_dead_round == float("inf")
        assert manager.drain_book_changes()[0] == []

    def test_books_never_move(self):
        manager = BudgetManager({1: 1_000})
        handles = manager.record_displays([7, 1], [40, 30], [0.5, 0.5], 0)
        assert manager.settle_clicks(
            [(7, 40, 0, handles[0]), (1, 30, 0, handles[1])]
        ) == (70, 0)
        manager.expire_outstanding(10_000)
        ids, remaining, owed, carrying = manager.drain_book_changes()
        assert ids == [1]
        assert remaining == [970]
        assert owed == [0]
        assert carrying == [False]
        assert 7 not in manager.debt_carriers
        assert manager.debt_carriers == set()

    def test_a_bad_row_still_rejects_the_whole_batch(self):
        manager = BudgetManager({1: 1_000})
        with pytest.raises(BudgetError):
            manager.record_displays([1, 7], [40, -1], [0.5, 0.5], 0)
        with pytest.raises(BudgetError):
            manager.record_displays([7], [40, 30], [0.5, 0.5], 0)
        assert manager.debt_carriers == set()
        assert manager.drain_book_changes()[0] == []


class TestHorizon:
    """The one debt model: an ad owes its price with its display CTR
    for ``horizon`` rounds, and a CTR-0 ad is dead on display."""

    @pytest.mark.parametrize("horizon", [0, -3])
    def test_horizon_below_one_rejected(self, horizon):
        with pytest.raises(BudgetError, match="horizon"):
            BudgetManager({1: 300}, horizon)

    @pytest.mark.parametrize("horizon", [2.5, 3.0, True, "4"])
    def test_a_horizon_that_is_not_an_int_is_refused(self, horizon):
        with pytest.raises(BudgetError, match="must be an int"):
            BudgetManager({}, horizon)

    def test_problem_holds_across_rounds_until_the_horizon(self):
        manager = BudgetManager({1: 300}, 6)
        manager.record_display(1, 90, 0.7, round_index=0)
        early = manager.throttle_problem(1, 120, 3, round_index=0)
        late = manager.throttle_problem(1, 120, 3, round_index=5)
        assert late == early
        assert exact_throttled_bid(late) == exact_throttled_bid(early)
        assert manager.earliest_dead_round == 6
        # At the horizon the ad owes nothing, expired or not.
        assert manager.throttle_problem(1, 120, 3, 6).outstanding == ()

    def test_ctr_zero_display_is_dead_on_display(self):
        manager = BudgetManager({1: 300}, 4)
        handles = manager.record_displays(
            [1, 1, 1], [50, 60, 70], [0.5, 0.0, 0.5], round_index=2
        )
        assert handles == [0, 1, 2]
        # Owed until an expiry counts it, but never part of a problem.
        assert manager.liability_cents(1) == 180
        assert manager.earliest_dead_round == 6
        assert manager.throttle_problem(1, 100, 1, 2).outstanding == (
            (50, 0.5), (70, 0.5),
        )
        # The next expiry counts it, whatever its round.
        assert manager.expire_outstanding_by_advertiser(-5) == {1: 1}
        assert manager.expire_outstanding_by_advertiser(2) == {}
        assert manager.liability_cents(1) == 120
        assert manager.expire_outstanding(6) == 2
        assert manager.debt_carriers == set()
        assert manager.earliest_dead_round == float("inf")


class TestBlocks:
    """One block per round that displayed budgeted ads, in round order."""

    def test_a_display_below_the_newest_or_a_dropped_block_is_refused(self):
        manager = BudgetManager({1: 300}, 4)
        manager.record_displays([1], [50], [0.5], 5)
        manager.record_displays([1], [60], [0.5], 5)
        with pytest.raises(BudgetError, match="round 4"):
            manager.record_displays([1], [70], [0.5], 4)
        assert manager.outstanding_counts() == {1: 2}
        assert manager.liability_cents(1) == 110
        # A dropped block's round is closed too: its handles are spent.
        manager.expire_outstanding(9)
        with pytest.raises(BudgetError, match="round 5"):
            manager.record_display(1, 70, 0.5, 5)
        assert manager.record_display(1, 70, 0.5, 6) == 0

    def test_a_round_writes_one_block_and_an_expiry_drops_whole_blocks(self):
        manager = BudgetManager({1: 300, 2: 300}, 2)
        for round_index in range(4):
            manager.record_displays(
                [1, 7, 2], [10, 20, 30], [0.5, 0.5, 0.5], round_index
            )
            manager.record_display(2, 40, 0.5, round_index)
        assert list(manager._blocks) == [0, 1, 2, 3]
        assert [
            {advertiser: list(cells) for advertiser, cells in block.items()}
            for block in manager._blocks.values()
        ] == [{1: [0], 2: [1, 2]}] * 4
        assert manager.expire_outstanding_by_advertiser(3) == {1: 2, 2: 4}
        assert list(manager._blocks) == [2, 3]
        assert manager.earliest_dead_round == 4


class TestMoneyIsIntCents:
    """A budget or a price must be an int (not a bool) and >= 0, checked
    whole before the books move, on the engine's books and the
    reference's."""

    BAD = (float("nan"), 2.5, True, float("inf"), -50, 30.7)

    @pytest.mark.parametrize("books", (BudgetManager, WalkingBooks))
    @pytest.mark.parametrize("bad", BAD)
    def test_budgets(self, books, bad):
        with pytest.raises(BudgetError):
            books({1: 100, 2: bad}, 3)

    @pytest.mark.parametrize("books", (BudgetManager, WalkingBooks))
    @pytest.mark.parametrize("bad", BAD)
    def test_display_prices(self, books, bad):
        books = books({1: 100}, 3)
        with pytest.raises(BudgetError):
            books.record_displays([1, 1], [30, bad], [0.5, 0.5], 0)
        assert books.outstanding_counts() == {}

    @pytest.mark.parametrize("books", (BudgetManager, WalkingBooks))
    @pytest.mark.parametrize("bad", BAD)
    def test_click_prices(self, books, bad):
        books = books({1: 100}, 3)
        (handle,) = books.record_displays([1], [30], [0.5], 0)
        with pytest.raises(BudgetError):
            books.settle_clicks([(1, 30, 0, handle), (1, bad, 0, handle)])
        assert books.remaining_cents(1) == 100
        assert books.outstanding_counts() == {1: 1}
        assert books.spent_snapshot() == {}


class TestOutstanding:
    def test_display_then_settle_clears_ledger(self):
        manager = BudgetManager({1: 100})
        handle = manager.record_display(1, 40, 0.5, round_index=3)
        assert manager.outstanding_counts() == {1: 1}
        manager.settle_click(1, 40, display_round=3, handle=handle)
        assert manager.outstanding_counts() == {}

    def test_expire_outstanding_at_the_horizon(self):
        manager = BudgetManager({1: 100}, 2)
        manager.record_display(1, 40, 0.5, round_index=0)
        assert manager.expire_outstanding(1) == 0
        assert manager.expire_outstanding(2) == 1
        assert manager.outstanding_counts() == {}

    def test_throttle_problem_construction(self):
        manager = BudgetManager({1: 100})
        manager.record_display(1, 30, 0.4, round_index=0)
        problem = manager.throttle_problem(
            1, bid_cents=60, num_auctions=2, round_index=0
        )
        assert problem.bid_cents == 60
        assert problem.budget_cents == 100
        assert problem.num_auctions == 2
        assert problem.outstanding == ((30, 0.4),)

    def test_throttle_problem_caps_bid_at_remaining(self):
        manager = BudgetManager({1: 25})
        problem = manager.throttle_problem(
            1, bid_cents=60, num_auctions=1, round_index=0
        )
        assert problem.bid_cents == 25

    def test_settle_clears_the_ad_its_handle_names(self):
        manager = BudgetManager({1: 1000})
        manager.record_display(1, 40, 0.5, round_index=2)
        later = manager.record_display(1, 40, 0.5, round_index=3)
        manager.settle_click(1, 40, display_round=3, handle=later)
        assert manager.outstanding_counts() == {1: 1}
        assert manager.throttle_problem(1, 40, 1, 3).outstanding == (
            (40, 0.5),
        )
