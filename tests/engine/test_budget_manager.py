"""Tests for the budget manager."""

from __future__ import annotations

import pytest

from repro.budgets.outstanding import ExponentialDecay, GeometricDecay, NoDecay
from repro.budgets.throttle import exact_throttled_bid
from repro.engine.budget_manager import BudgetManager
from repro.errors import BudgetError


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


class TestDecayVaries:
    """``decay_varies`` is the engine's one answer to "may a problem
    built in one round answer for a later one?"."""

    @pytest.mark.parametrize(
        ("decay", "varies"),
        [
            (NoDecay(horizon=3), False),
            (GeometricDecay(ratio=0.5, horizon=4), True),
            (ExponentialDecay(rate=0.3, horizon=5), True),
        ],
    )
    def test_only_a_non_decaying_model_holds_still(self, decay, varies):
        assert BudgetManager({1: 300}, decay).decay_varies is varies

    def test_no_decay_problem_holds_across_rounds(self):
        manager = BudgetManager({1: 300})
        manager.record_display(1, 90, 0.7, round_index=0)
        assert not manager.decay_varies
        early = manager.throttle_problem(1, 120, 3, round_index=0)
        late = manager.throttle_problem(1, 120, 3, round_index=5)
        assert late == early
        assert exact_throttled_bid(late) == exact_throttled_bid(early)

    def test_varying_decay_moves_the_bid_across_rounds(self):
        manager = BudgetManager({1: 200}, GeometricDecay(ratio=0.5, horizon=32))
        manager.record_display(1, 90, 0.8, round_index=0)
        assert manager.decay_varies
        # The same books, no event between: only the round differs.
        early = manager.throttle_problem(1, 120, 3, round_index=0)
        late = manager.throttle_problem(1, 120, 3, round_index=3)
        assert exact_throttled_bid(early) != exact_throttled_bid(late)


class TestOutstanding:
    def test_display_then_settle_clears_ledger(self):
        manager = BudgetManager({1: 100})
        handle = manager.record_display(1, 40, 0.5, round_index=3)
        assert manager.outstanding_counts() == {1: 1}
        manager.settle_click(1, 40, display_round=3, handle=handle)
        assert manager.outstanding_counts() == {}

    def test_expire_outstanding_uses_decay(self):
        manager = BudgetManager({1: 100}, GeometricDecay(ratio=0.5, horizon=2))
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
