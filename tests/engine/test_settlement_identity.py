"""Regression tests for outstanding-ad settlement identity.

The old ``BudgetManager.settle_click`` matched the clicked ad against
the ledger by ``(price_cents, displayed_round)`` alone.  When an
advertiser wins two same-price slots in one round with *different* CTRs
(different slot factors do exactly that), the first value-match was
cleared regardless of which ad was actually clicked -- leaving the wrong
CTR in the ledger and skewing every later throttled bid built from it.
``record_display`` now returns an identity handle, and settlement names
the clicked ad by that handle, resolving exactly it in O(1).
"""

from __future__ import annotations

import pytest

from repro.budgets.outstanding import OutstandingLedger
from repro.engine.budget_manager import BudgetManager
from repro.errors import BudgetError


class TestLedgerHandles:
    def test_record_display_assigns_distinct_handles(self):
        ledger = OutstandingLedger()
        first = ledger.record_display(100, 0.9, 0)
        second = ledger.record_display(100, 0.1, 0)
        assert first.handle != second.handle
        assert ledger.has_handle(first.handle)
        assert ledger.has_handle(second.handle)

    def test_resolve_handle_pops_exactly_that_ad(self):
        ledger = OutstandingLedger()
        high = ledger.record_display(100, 0.9, 0)
        low = ledger.record_display(100, 0.1, 0)
        resolved = ledger.resolve_handle(low.handle)
        assert resolved.base_ctr == pytest.approx(0.1)
        assert not ledger.has_handle(low.handle)
        assert ledger.has_handle(high.handle)
        assert [ad.base_ctr for ad in ledger.ads] == [pytest.approx(0.9)]

    def test_resolve_handle_missing_raises(self):
        ledger = OutstandingLedger()
        with pytest.raises(BudgetError):
            ledger.resolve_handle(7)

    def test_value_equal_ads_stay_distinct(self):
        # Two displays with identical (price, ctr, round) are equal as
        # values but distinct as debts; resolving one must leave the
        # other outstanding.
        ledger = OutstandingLedger()
        a = ledger.record_display(50, 0.5, 3)
        b = ledger.record_display(50, 0.5, 3)
        ledger.resolve_handle(a.handle)
        assert len(ledger) == 1
        assert ledger.has_handle(b.handle)


class TestSettlementIdentity:
    def _manager_with_two_same_price_ads(self):
        """One advertiser, two same-price same-round ads, CTRs 0.9/0.1.

        The budget is tight enough (2.5 clicks) that the surviving debt
        genuinely throttles the next bid -- a loose budget would let the
        trivially-unthrottled shortcut mask which ad was left behind.
        """
        manager = BudgetManager({1: 250})
        high = manager.record_display(1, 100, 0.9, 0)
        low = manager.record_display(1, 100, 0.1, 0)
        return manager, high, low

    def _remaining_ctrs(self, manager):
        problem = manager.throttle_problem(1, 100, 1, 0)
        return sorted(ctr for _, ctr in problem.outstanding)

    def test_handle_settles_the_clicked_ad(self):
        # The click is for the *low*-CTR ad.  The correct post-settle
        # ledger holds the 0.9 ad -- and the throttle problem built from
        # it sees the 0.9 debt.
        manager, high, low = self._manager_with_two_same_price_ads()
        manager.settle_click(1, 100, 0, handle=low)
        assert self._remaining_ctrs(manager) == [pytest.approx(0.9)]

    def test_which_ad_is_settled_moves_the_throttled_bid(self):
        # End-to-end consequence: the two ads are equal by (price,
        # round), yet settling one or the other leaves a different debt
        # behind, and with it a different b-hat -- which is why a
        # settlement must name its ad by handle.
        from repro.budgets.throttle import exact_throttled_bid

        low_clicked, high, low = self._manager_with_two_same_price_ads()
        low_clicked.settle_click(1, 100, 0, handle=low)
        high_clicked, high, low = self._manager_with_two_same_price_ads()
        high_clicked.settle_click(1, 100, 0, handle=high)
        bid_low_clicked = exact_throttled_bid(
            low_clicked.throttle_problem(1, 100, 1, 0)
        )
        bid_high_clicked = exact_throttled_bid(
            high_clicked.throttle_problem(1, 100, 1, 0)
        )
        # The 0.9 debt left behind throttles harder than the 0.1 debt.
        assert bid_low_clicked < bid_high_clicked

    def test_expired_handle_still_settles_the_charge(self):
        # A click arriving after its ad aged out of the ledger must
        # still charge the budget; the stale handle is simply ignored.
        manager = BudgetManager({1: 1_000})
        handle = manager.record_display(1, 100, 0.5, 0)
        manager.expire_outstanding(10_000_000)
        charge = manager.settle_click(1, 100, 0, handle=handle)
        assert charge.charged_cents == 100
        assert manager.spent_cents(1) == 100

    def test_unrecorded_display_settles_with_sentinel_handle(self):
        # Engine paths that never recorded a ledger entry settle with
        # handle -1, which can never collide with a real handle.
        manager = BudgetManager({1: 1_000})
        manager.record_display(1, 100, 0.5, 0)
        charge = manager.settle_click(1, 100, 0, handle=-1)
        assert charge.charged_cents == 100
        # The recorded ad is untouched.
        assert len(manager.throttle_problem(1, 100, 1, 0).outstanding) == 1
