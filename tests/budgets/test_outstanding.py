"""Tests for outstanding ads and the ledger."""

from __future__ import annotations

import pytest

from repro.budgets.outstanding import OutstandingAd, OutstandingLedger
from repro.errors import BudgetError


class TestHorizon:
    """An ad owes its price with its display CTR for ``horizon`` rounds."""

    def test_ctr_constant_until_horizon(self):
        ledger = OutstandingLedger(horizon=5)
        ledger.record_display(100, 0.4, 0)
        for current_round in range(5):
            assert ledger.snapshot(current_round) == [(100, 0.4)]
        assert ledger.snapshot(5) == []

    def test_default_horizon(self):
        ledger = OutstandingLedger()
        assert ledger.horizon == 1_000_000
        ledger.record_display(100, 0.4, 0)
        assert ledger.snapshot(999_999) == [(100, 0.4)]
        assert ledger.snapshot(1_000_000) == []

    @pytest.mark.parametrize("horizon", [0, -1])
    def test_horizon_below_one_rejected(self, horizon):
        with pytest.raises(BudgetError, match="horizon"):
            OutstandingLedger(horizon)

    @pytest.mark.parametrize("horizon", [2.5, 3.0, True, "4"])
    def test_a_horizon_that_is_not_an_int_is_refused(self, horizon):
        with pytest.raises(BudgetError, match="must be an int"):
            OutstandingLedger(horizon)

    def test_horizon_one_lives_only_in_its_display_round(self):
        ledger = OutstandingLedger(horizon=1)
        ledger.record_display(100, 0.4, 3)
        assert ledger.snapshot(3) == [(100, 0.4)]
        assert ledger.snapshot(4) == []
        assert ledger.prune(3) == 0
        assert ledger.prune(4) == 1

    def test_ctr_zero_ad_is_dead_on_display(self):
        ledger = OutstandingLedger(horizon=5)
        ledger.record_display(100, 0.0, 2)
        ledger.record_display(50, 0.5, 2)
        assert ledger.snapshot(2) == [(50, 0.5)]
        assert ledger.max_liability_cents(2) == 50
        assert ledger.prune(2) == 1
        assert len(ledger) == 1

    def test_an_ad_shown_after_the_round_asked_is_alive(self):
        ledger = OutstandingLedger(horizon=2)
        ledger.record_display(100, 0.6, 5)
        assert ledger.snapshot(3) == [(100, 0.6)]
        assert ledger.prune(3) == 0


class TestOutstandingAd:
    def test_validation(self):
        with pytest.raises(BudgetError):
            OutstandingAd(-1, 0.5)
        with pytest.raises(BudgetError):
            OutstandingAd(10, 1.5)


class TestLedger:
    def test_record_and_snapshot(self):
        ledger = OutstandingLedger()
        ledger.record_display(100, 0.5, 0)
        ledger.record_display(50, 0.2, 1)
        assert len(ledger) == 2
        assert ledger.snapshot(1) == [(100, 0.5), (50, 0.2)]

    def test_resolve_removes_ad(self):
        ledger = OutstandingLedger()
        ad = ledger.record_display(100, 0.5, 0)
        ledger.resolve(ad)
        assert len(ledger) == 0

    def test_resolve_unknown_raises(self):
        ledger = OutstandingLedger()
        ad = OutstandingAd(10, 0.1)
        with pytest.raises(BudgetError):
            ledger.resolve(ad)

    def test_prune_drops_expired(self):
        ledger = OutstandingLedger(horizon=3)
        ledger.record_display(100, 0.5, 0)
        ledger.record_display(100, 0.5, 5)
        dropped = ledger.prune(6)
        assert dropped == 1
        assert len(ledger) == 1

    def test_snapshot_omits_zero_probability(self):
        ledger = OutstandingLedger(horizon=2)
        ledger.record_display(100, 0.5, 0)
        assert ledger.snapshot(0) == [(100, 0.5)]
        assert ledger.snapshot(2) == []

    def test_liability_accessors(self):
        ledger = OutstandingLedger()
        ledger.record_display(100, 0.5, 0)
        ledger.record_display(60, 0.25, 0)
        assert ledger.max_liability_cents(0) == 160
        assert ledger.expected_liability_cents(0) == pytest.approx(65.0)

    def test_running_liability_follows_every_add_and_removal(self):
        ledger = OutstandingLedger(horizon=2)
        first = ledger.record_display(100, 0.5, 0)
        second = ledger.record_display(60, 0.25, 0)
        ledger.record_display(30, 0.5, 1)
        assert ledger.liability_cents == 190
        ledger.resolve(first)
        assert ledger.liability_cents == 90
        # A hand-made value-equal ad resolves the live one it matches.
        ledger.resolve(OutstandingAd(60, 0.25, 0))
        assert not ledger.has_handle(second.handle)
        assert ledger.liability_cents == 30
        ledger.record_display(45, 0.5, 0)
        assert ledger.prune(2) == 1
        assert ledger.liability_cents == 30
        assert ledger.prune(3) == 1
        assert ledger.liability_cents == 0

    def test_running_liability_bounds_the_exact_worst_case(self):
        # Dead but not yet pruned: counted by the running sum, left out
        # of omega_l -- so the running sum is the (sound) upper bound.
        ledger = OutstandingLedger(horizon=2)
        ledger.record_display(100, 0.5, 0)
        ledger.record_display(60, 0.0, 0)
        assert ledger.max_liability_cents(0) == 100
        assert ledger.max_liability_cents(2) == 0
        assert ledger.liability_cents == 160
