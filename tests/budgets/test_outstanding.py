"""Tests for outstanding ads, decay models, and the ledger."""

from __future__ import annotations

import pytest

from repro.budgets.outstanding import (
    ExponentialDecay,
    GeometricDecay,
    NoDecay,
    OutstandingAd,
    OutstandingLedger,
)
from repro.errors import BudgetError


class TestDecayModels:
    def test_no_decay_constant_until_horizon(self):
        decay = NoDecay(horizon=5)
        assert decay.probability(0.4, 0) == 0.4
        assert decay.probability(0.4, 4) == 0.4
        assert decay.probability(0.4, 5) == 0.0

    def test_geometric_halves(self):
        decay = GeometricDecay(ratio=0.5, horizon=10)
        assert decay.probability(0.8, 0) == pytest.approx(0.8)
        assert decay.probability(0.8, 2) == pytest.approx(0.2)
        assert decay.probability(0.8, 10) == 0.0

    def test_geometric_validation(self):
        with pytest.raises(BudgetError):
            GeometricDecay(ratio=1.5)
        with pytest.raises(BudgetError):
            GeometricDecay(horizon=0)

    def test_exponential_decreases(self):
        decay = ExponentialDecay(rate=0.5, horizon=8)
        values = [decay.probability(1.0, t) for t in range(8)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert decay.probability(1.0, 8) == 0.0

    def test_exponential_validation(self):
        with pytest.raises(BudgetError):
            ExponentialDecay(rate=-1.0)
        with pytest.raises(BudgetError):
            ExponentialDecay(horizon=-1)


class TestOutstandingAd:
    def test_validation(self):
        with pytest.raises(BudgetError):
            OutstandingAd(-1, 0.5)
        with pytest.raises(BudgetError):
            OutstandingAd(10, 1.5)

    def test_current_ctr_applies_decay(self):
        ad = OutstandingAd(100, 0.6, displayed_round=2)
        decay = GeometricDecay(ratio=0.5, horizon=10)
        assert ad.current_ctr(decay, 2) == pytest.approx(0.6)
        assert ad.current_ctr(decay, 4) == pytest.approx(0.15)

    def test_current_ctr_clamps_negative_elapsed(self):
        ad = OutstandingAd(100, 0.6, displayed_round=5)
        assert ad.current_ctr(NoDecay(), 3) == pytest.approx(0.6)


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
        ledger = OutstandingLedger(decay=GeometricDecay(ratio=0.5, horizon=3))
        ledger.record_display(100, 0.5, 0)
        ledger.record_display(100, 0.5, 5)
        dropped = ledger.prune(6)
        assert dropped == 1
        assert len(ledger) == 1

    def test_snapshot_omits_zero_probability(self):
        ledger = OutstandingLedger(decay=NoDecay(horizon=2))
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
        ledger = OutstandingLedger(decay=NoDecay(horizon=2))
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
        ledger = OutstandingLedger(decay=NoDecay(horizon=2))
        ledger.record_display(100, 0.5, 0)
        ledger.record_display(60, 0.0, 0)
        assert ledger.max_liability_cents(0) == 100
        assert ledger.max_liability_cents(2) == 0
        assert ledger.liability_cents == 160
