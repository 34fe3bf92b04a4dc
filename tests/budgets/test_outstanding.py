"""Tests for the list ledger (the reference's books) and the display
batch check."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.budgets.outstanding import (
    OutstandingLedger, check_display_arrays, check_displays,
)
from repro.errors import BudgetError


class TestHorizon:
    """An ad owes its price with its display CTR for ``horizon`` rounds."""

    def test_ctr_constant_until_horizon(self):
        ledger = OutstandingLedger(horizon=5)
        ledger.add(100, 0.4, 0)
        for current_round in range(5):
            assert ledger.snapshot(current_round) == [(100, 0.4)]
        assert ledger.snapshot(5) == []

    def test_default_horizon(self):
        ledger = OutstandingLedger()
        assert ledger.horizon == 1_000_000
        ledger.add(100, 0.4, 0)
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
        ledger.add(100, 0.4, 3)
        assert ledger.snapshot(3) == [(100, 0.4)]
        assert ledger.snapshot(4) == []
        assert ledger.prune(3) == 0
        assert ledger.prune(4) == 1

    def test_ctr_zero_ad_is_dead_on_display(self):
        ledger = OutstandingLedger(horizon=5)
        ledger.add(100, 0.0, 2)
        ledger.add(50, 0.5, 2)
        assert ledger.snapshot(2) == [(50, 0.5)]
        assert ledger.prune(2) == 1
        assert len(ledger) == 1

    def test_an_ad_shown_after_the_round_asked_is_alive(self):
        ledger = OutstandingLedger(horizon=2)
        ledger.add(100, 0.6, 5)
        assert ledger.snapshot(3) == [(100, 0.6)]
        assert ledger.prune(3) == 0


class TestLedger:
    def test_add_and_snapshot_in_display_order(self):
        ledger = OutstandingLedger()
        assert ledger.add(100, 0.5, 0) == 0
        assert ledger.add(50, 0.2, 1) == 1
        assert len(ledger) == 2
        assert ledger.snapshot(1) == [(100, 0.5), (50, 0.2)]

    def test_discard_removes_exactly_the_handle(self):
        ledger = OutstandingLedger()
        high = ledger.add(100, 0.9, 0)
        low = ledger.add(100, 0.1, 0)
        assert ledger.discard(low)
        assert ledger.snapshot(0) == [(100, 0.9)]
        # Gone already, or never issued: nothing happens.
        assert not ledger.discard(low)
        assert not ledger.discard(7)
        assert ledger.discard(high)
        assert len(ledger) == 0

    def test_prune_drops_expired(self):
        ledger = OutstandingLedger(horizon=3)
        ledger.add(100, 0.5, 0)
        ledger.add(100, 0.5, 5)
        assert ledger.prune(6) == 1
        assert len(ledger) == 1

    def test_running_liability_follows_every_add_and_removal(self):
        ledger = OutstandingLedger(horizon=2)
        first = ledger.add(100, 0.5, 0)
        ledger.add(60, 0.25, 0)
        ledger.add(30, 0.5, 1)
        assert ledger.liability_cents == 190
        ledger.discard(first)
        assert ledger.liability_cents == 90
        ledger.add(45, 0.0, 1)
        # Dead but not yet pruned: counted, though it owes nothing.
        assert ledger.liability_cents == 135
        assert ledger.prune(2) == 2
        assert ledger.liability_cents == 30
        assert ledger.prune(3) == 1
        assert ledger.liability_cents == 0


class TestCheckDisplays:
    """One check over a whole batch: int cents >= 0, CTRs in [0, 1]."""

    @pytest.mark.parametrize(
        "prices, ctrs",
        [
            ([10, -1], [0.5, 0.5]),
            ([10, 2.5], [0.5, 0.5]),
            ([True], [0.5]),
            ([float("nan")], [0.5]),
            ([10], [-0.01]),
            ([10], [1.5]),
            ([10, 10], [0.5, float("nan")]),
            ([10], [0.5, 0.5]),
        ],
    )
    def test_a_bad_row_refuses_the_batch(self, prices, ctrs):
        with pytest.raises(BudgetError):
            check_displays(prices, ctrs)

    def test_good_batches_pass(self):
        check_displays([], [])
        check_displays([0, 10**12], [0.0, 1.0])


def _refusal(check, *columns):
    """The error ``check`` raises on the columns, or ``None``."""
    try:
        check(*columns)
    except BudgetError as error:
        return str(error)
    return None


class TestCheckDisplayArrays:
    """The array form refuses exactly the batches the list form does,
    with its error: the engine checks a priced round as arrays."""

    @pytest.mark.parametrize(
        "prices, ctrs",
        [
            (np.array([10, -1]), np.array([0.5, 0.5])),
            (np.array([10, 2.5]), np.array([0.5, 0.5])),
            (np.array([True]), np.array([0.5])),
            (np.array([10]), np.array([-0.01])),
            (np.array([10]), np.array([1.5])),
            (np.array([10, 10]), np.array([0.5, np.nan])),
            (np.array([10]), np.array([0.5, 0.5])),
        ],
    )
    def test_a_bad_row_refuses_the_batch(self, prices, ctrs):
        expected = _refusal(check_displays, prices.tolist(), ctrs.tolist())
        assert expected is not None
        assert _refusal(check_display_arrays, prices, ctrs) == expected

    @given(
        prices=st.lists(st.integers(-3, 10**12), max_size=8),
        ctrs=st.lists(
            st.floats(-0.5, 1.5) | st.just(float("nan")), max_size=8
        ),
    )
    def test_same_verdict_as_the_list_check(self, prices, ctrs):
        columns = np.array(prices, dtype=np.int64), np.array(ctrs)
        assert _refusal(check_display_arrays, *columns) == _refusal(
            check_displays, prices, ctrs
        )
