"""Event-driven budget books against the walk they replaced.

:class:`repro.engine.budget_manager.BudgetManager` expires outstanding
ads from a min-heap keyed on the round each ad dies, indexes the
non-empty ledgers, and carries a running liability per ledger.  The
oracle here is what the manager did before: one
:meth:`repro.budgets.outstanding.OutstandingLedger.prune` walk over
every ledger per expiry call, and full recounts.  A hypothesis machine
drives both with the same random traffic -- displays (``base_ctr = 0``
included), settlements by live handle and by a handle that is already
gone, expiries at repeated and non-monotone rounds -- under every
shipped decay model, including the ones whose probability reaches zero
before the horizon.  The market mixes budgeted advertisers with an
unbudgeted one, which keeps no books at all: handle ``-1``, every click
charged in full, never a mover (DESIGN section 17).  The batch
calls (``record_displays`` / ``settle_clicks``, DESIGN section 19) run
against the same oracle fed one ad at a time: same handles, books and
expiries, one mover per distinct advertiser, and a bad row anywhere
refuses the whole batch.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.budgets.outstanding import (
    ExponentialDecay,
    GeometricDecay,
    NoDecay,
    OutstandingAd,
    OutstandingLedger,
)
from repro.engine.budget_manager import BudgetManager
from repro.errors import BudgetError

ADVERTISERS = (1, 2, 3, 7)
BUDGETS = {1: 400, 2: 150, 3: 0}  # 7 is unbudgeted
MAX_ROUND = 12

DECAYS = {
    "no_decay": NoDecay(horizon=3),
    "geometric": GeometricDecay(ratio=0.5, horizon=4),
    # ratio**1 == 0: dead one round after display, horizon or not.
    "geometric_ratio_zero": GeometricDecay(ratio=0.0, horizon=4),
    # 0.5 * (1e-200)**2 underflows to 0.0 four rounds before the horizon.
    "geometric_underflow": GeometricDecay(ratio=1e-200, horizon=6),
    "exponential": ExponentialDecay(rate=0.3, horizon=5),
    # exp(-800) == 0.0 while exp(-400) > 0: dead at elapsed 2 of 5.
    "exponential_underflow": ExponentialDecay(rate=400.0, horizon=5),
}


def _budgeted(advertisers: Iterable[int]) -> List[int]:
    """The distinct budgeted advertisers among ``advertisers``, ascending:
    whose books a call moves."""
    return sorted(set(advertisers) & set(BUDGETS))


class WalkingBooks:
    """The parent commit's bookkeeping: walk every ledger, every time --
    for the budgeted advertisers; an unbudgeted one only spends."""

    def __init__(self, budgets: Dict[int, int], decay) -> None:
        self.budgets = budgets
        self.decay = decay
        self.ledgers: Dict[int, OutstandingLedger] = {}
        self.spent: Dict[int, int] = {}

    def _ledger(self, advertiser_id: int) -> OutstandingLedger:
        return self.ledgers.setdefault(
            advertiser_id, OutstandingLedger(decay=self.decay)
        )

    def record_display(self, advertiser_id, price, ctr, round_index) -> int:
        if advertiser_id not in self.budgets:
            return -1
        return self._ledger(advertiser_id).record_display(
            price, ctr, round_index
        ).handle

    def settle_click(
        self, advertiser_id, price, display_round, handle: int
    ) -> Tuple[int, int]:
        if advertiser_id in self.budgets:
            ledger = self._ledger(advertiser_id)
            if ledger.has_handle(handle):
                ledger.resolve_handle(handle)
            remaining = self.budgets[advertiser_id] - self.spent.get(
                advertiser_id, 0
            )
            charged = min(price, max(0, remaining))
        else:
            charged = price
        self.spent[advertiser_id] = self.spent.get(advertiser_id, 0) + charged
        return charged, price - charged

    def expire(self, round_index: int) -> Dict[int, int]:
        expired = {}
        for advertiser_id, ledger in self.ledgers.items():
            pruned = ledger.prune(round_index)
            if pruned:
                expired[advertiser_id] = pruned
        return expired

    def counts(self) -> Dict[int, int]:
        return {
            advertiser_id: len(ledger)
            for advertiser_id, ledger in self.ledgers.items()
            if len(ledger)
        }


def _ctr_runs(ads) -> int:
    """Upper bound on a batch's expiry-queue entries: per advertiser,
    the runs of consecutive ads with one CTR (same CTR, same dead
    round; different CTRs may still die together)."""
    runs = 0
    last: Dict[int, float] = {}
    for advertiser, _, ctr in ads:
        if last.get(advertiser) != ctr:
            runs += 1
        last[advertiser] = ctr
    return runs


class BudgetBooksMachine(RuleBasedStateMachine):
    """Event-driven manager and walking oracle, in lockstep."""

    decay = NoDecay(horizon=3)

    def __init__(self) -> None:
        super().__init__()
        self.manager = BudgetManager(BUDGETS, decay=self.decay)
        self.oracle = WalkingBooks(BUDGETS, self.decay)
        # Every handle ever issued, settled and expired ones included.
        self.issued: List[Tuple[int, int, int, int]] = []
        # (remaining, liability, carries debt) as last drained.
        self.drained_books: Dict[int, Tuple[int, int, bool]] = {}

    def _movers(self) -> List[int]:
        """Whom the calls since the last drain moved, ascending, with
        their books recorded as drained."""
        ids, remaining, liability, carrying = (
            self.manager.drain_book_changes()
        )
        assert len(set(ids)) == len(ids)
        self.drained_books.update(
            zip(ids, zip(remaining, liability, carrying))
        )
        return sorted(ids)

    @rule(
        advertiser=st.sampled_from(ADVERTISERS),
        price=st.integers(min_value=0, max_value=120),
        ctr=st.sampled_from((0.0, 0.05, 0.5, 1.0)),
        round_index=st.integers(min_value=0, max_value=MAX_ROUND),
    )
    def display(self, advertiser, price, ctr, round_index) -> None:
        handle = self.manager.record_display(
            advertiser, price, ctr, round_index
        )
        assert handle == self.oracle.record_display(
            advertiser, price, ctr, round_index
        )
        self.issued.append((advertiser, price, round_index, handle))
        assert self._movers() == _budgeted([advertiser])

    @rule(
        ads=st.lists(
            st.tuples(
                st.sampled_from(ADVERTISERS),
                st.integers(min_value=0, max_value=120),
                st.sampled_from((0.0, 0.05, 0.5, 1.0)),
            ),
            max_size=9,
        ),
        round_index=st.integers(min_value=0, max_value=MAX_ROUND),
    )
    def display_batch(self, ads, round_index) -> None:
        # One call for a stage's ads == the same ads one call each:
        # same handles now, same counts / liability / expiry rounds by
        # the invariants and the expire rules that follow.
        advertisers, prices, ctrs = (
            [ad[column] for ad in ads] for column in range(3)
        )
        queued = len(self.manager._expiry)
        handles = self.manager.record_displays(
            advertisers, prices, ctrs, round_index
        )
        assert handles == [
            self.oracle.record_display(advertiser, price, ctr, round_index)
            for advertiser, price, ctr in ads
        ]
        self.issued.extend(
            (advertiser, price, round_index, handle)
            for (advertiser, price, _), handle in zip(ads, handles)
        )
        # Exactly the batch's distinct budgeted advertisers, ascending,
        # once each.
        assert self._movers() == _budgeted(advertisers)
        # One queue entry per run of an advertiser's ads dying together.
        assert len(self.manager._expiry) - queued <= _ctr_runs(ads)

    @rule(
        data=st.data(),
        bad=st.sampled_from(
            ((-1, 0.5), (10, -0.01), (10, 1.5), (10, float("nan")))
        ),
        round_index=st.integers(min_value=0, max_value=MAX_ROUND),
    )
    def display_batch_with_a_bad_row(self, data, bad, round_index) -> None:
        # A bad row anywhere refuses the whole batch: no ad booked, no
        # handle consumed, nothing queued, nothing published.
        ads = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from(ADVERTISERS),
                    st.integers(min_value=0, max_value=120),
                    st.sampled_from((0.05, 0.5)),
                ),
                max_size=5,
            )
        )
        at = data.draw(st.integers(min_value=0, max_value=len(ads)))
        ads.insert(at, (data.draw(st.sampled_from(ADVERTISERS)), *bad))
        queued = list(self.manager._expiry)
        carriers = set(self.manager.debt_carriers)
        with pytest.raises(BudgetError):
            self.manager.record_displays(
                *([ad[column] for ad in ads] for column in range(3)),
                round_index,
            )
        assert self.manager._expiry == queued
        assert self.manager.debt_carriers == carriers
        assert self._movers() == []

    @rule(data=st.data())
    def settle_batch(self, data) -> None:
        # A tick's clicks in one call: live, settled and expired handles
        # mixed, repeats of one advertiser charged in order.
        if not self.issued:
            return
        clicks = data.draw(
            st.lists(st.sampled_from(self.issued), max_size=6)
        )
        totals = self.manager.settle_clicks(
            [
                (advertiser, price, shown, handle)
                for advertiser, price, shown, handle in clicks
            ]
        )
        # The batch's totals are the oracle's clicks charged one at a
        # time, in order.
        charges = [
            self.oracle.settle_click(advertiser, price, shown, handle)
            for advertiser, price, shown, handle in clicks
        ]
        assert totals == (
            sum(charged for charged, _ in charges),
            sum(forgiven for _, forgiven in charges),
        )
        assert self._movers() == _budgeted(click[0] for click in clicks)

    @rule(data=st.data())
    def settle_by_handle(self, data) -> None:
        # Live, already settled or already expired: all three happen,
        # and a handle that is gone still settles the charge.
        if not self.issued:
            return
        advertiser, price, shown, handle = data.draw(
            st.sampled_from(self.issued)
        )
        self._settle(advertiser, price, shown, handle)

    @rule(data=st.data())
    def settle_expired_handle(self, data) -> None:
        gone = [
            entry
            for entry in self.issued
            if entry[0] in BUDGETS
            and not self.oracle.ledgers[entry[0]].has_handle(entry[3])
        ]
        if not gone:
            return
        advertiser, price, shown, handle = data.draw(st.sampled_from(gone))
        before = self.manager.outstanding_counts()
        self._settle(advertiser, price, shown, handle)
        assert self.manager.outstanding_counts() == before

    def _settle(self, advertiser, price, shown, handle) -> None:
        charge = self.manager.settle_click(
            advertiser, price, shown, handle=handle
        )
        assert (
            charge.charged_cents,
            charge.forgiven_cents,
        ) == self.oracle.settle_click(advertiser, price, shown, handle)
        assert self._movers() == _budgeted([advertiser])

    @rule(round_index=st.integers(min_value=-1, max_value=MAX_ROUND + 8))
    def expire(self, round_index) -> None:
        expired = self.manager.expire_outstanding_by_advertiser(round_index)
        assert expired == self.oracle.expire(round_index)
        assert list(expired) == sorted(expired)
        # One mover per advertiser that lost ads.
        assert self._movers() == sorted(expired)

    @rule(round_index=st.integers(min_value=-1, max_value=MAX_ROUND + 8))
    def expire_total(self, round_index) -> None:
        total = self.manager.expire_outstanding(round_index)
        expected = self.oracle.expire(round_index)
        assert total == sum(expected.values())
        assert self._movers() == sorted(expected)

    @invariant()
    def books_agree(self) -> None:
        manager, oracle = self.manager, self.oracle
        for advertiser in ADVERTISERS:
            mine = manager._ledgers.get(advertiser)
            theirs = oracle.ledgers.get(advertiser)
            ads = mine.ads if mine is not None else []
            assert ads == (theirs.ads if theirs is not None else [])
            assert [ad.handle for ad in ads] == [
                ad.handle for ad in (theirs.ads if theirs else [])
            ]
            liability = sum(ad.price_cents for ad in ads)
            assert manager.liability_cents(advertiser) == liability
            if mine is not None:
                assert mine.liability_cents == liability
                # An upper bound on the exact worst case at any round.
                for round_index in (0, MAX_ROUND // 2, MAX_ROUND + 8):
                    assert mine.max_liability_cents(round_index) <= liability
        assert manager.outstanding_counts() == oracle.counts()
        assert set(manager.debt_carriers) == set(oracle.counts())

    @invariant()
    def drained_books_follow_the_books(self) -> None:
        # What the engine's standing score columns are fed: every
        # advertiser a call moved, once, with its books as they stand.
        ids, remaining, liability, carrying = (
            self.manager.drain_book_changes()
        )
        assert len(set(ids)) == len(ids)
        self.drained_books.update(
            zip(ids, zip(remaining, liability, carrying))
        )
        assert self.manager.drain_book_changes() == ([], [], [], [])
        counts = self.oracle.counts()
        for advertiser in ADVERTISERS:
            budget = BUDGETS.get(advertiser)
            theirs = self.oracle.ledgers.get(advertiser)
            if budget is None:
                # Unbudgeted: no books, so never a mover, and the
                # sentinel remaining whatever it spent.
                assert advertiser not in self.drained_books
                assert theirs is None
                budget, spent = BudgetManager.UNBUDGETED_CENTS, 0
            else:
                spent = self.oracle.spent.get(advertiser, 0)
            books = (
                max(0, budget - spent),
                sum(ad.price_cents for ad in theirs.ads) if theirs else 0,
                advertiser in counts,
            )
            # Never drained means never moved.
            assert self.drained_books.get(advertiser, (budget, 0, False)) == books
            assert books == (
                self.manager.remaining_cents(advertiser),
                self.manager.liability_cents(advertiser),
                advertiser in self.manager.debt_carriers,
            )
        assert self.manager.spent_snapshot() == {
            advertiser: spent
            for advertiser, spent in sorted(self.oracle.spent.items())
            if spent
        }


def _machine_case(decay):
    machine = type("Machine", (BudgetBooksMachine,), {"decay": decay})
    case = machine.TestCase
    case.settings = settings(
        max_examples=30, stateful_step_count=40, deadline=None
    )
    return case


TestNoDecayBooks = _machine_case(DECAYS["no_decay"])
TestGeometricBooks = _machine_case(DECAYS["geometric"])
TestGeometricRatioZeroBooks = _machine_case(DECAYS["geometric_ratio_zero"])
TestGeometricUnderflowBooks = _machine_case(DECAYS["geometric_underflow"])
TestExponentialBooks = _machine_case(DECAYS["exponential"])
TestExponentialUnderflowBooks = _machine_case(DECAYS["exponential_underflow"])


class TestDeadRound:
    """``dead_round`` is the first round ``current_ctr`` is zero."""

    @pytest.mark.parametrize("name", sorted(DECAYS))
    @pytest.mark.parametrize("base_ctr", (0.0, 0.05, 0.5, 1.0))
    @pytest.mark.parametrize("displayed", (0, 5))
    def test_matches_a_scan_over_rounds(self, name, base_ctr, displayed):
        decay = DECAYS[name]
        ad = OutstandingAd(40, base_ctr, displayed)
        dead = ad.dead_round(decay)
        for round_index in range(-3, displayed + decay.horizon + 3):
            assert (ad.current_ctr(decay, round_index) <= 0.0) == (
                round_index >= dead
            )

    def test_normally_the_horizon(self):
        assert OutstandingAd(40, 0.5, 7).dead_round(NoDecay(horizon=17)) == 24

    def test_early_deaths(self):
        ad = OutstandingAd(40, 0.5, 7)
        assert ad.dead_round(DECAYS["geometric_ratio_zero"]) == 8
        assert ad.dead_round(DECAYS["geometric_underflow"]) == 9
        assert ad.dead_round(DECAYS["exponential_underflow"]) == 9

    def test_dead_on_display_is_dead_at_every_round(self):
        ad = OutstandingAd(40, 0.0, 7)
        assert ad.dead_round(NoDecay(horizon=17)) == float("-inf")
        assert OutstandingAd(40, 0.5, 7).dead_round(
            NoDecay(horizon=0)
        ) == float("-inf")


class TestLedgerOwnership:
    def test_ads_recorded_on_a_ledger_directly_are_never_queued(self):
        # The documented limit of the manager being the only writer.
        manager = BudgetManager({1: 100}, NoDecay(horizon=2))
        manager.record_display(1, 10, 0.5, 0)
        manager._ledgers[1].record_display(20, 0.5, 0)
        assert manager.expire_outstanding(5) == 1
        assert manager.outstanding_counts() == {1: 1}
        assert manager._ledgers[1].prune(5) == 1

    def test_settled_ads_are_skipped_when_they_come_due(self):
        manager = BudgetManager({1: 100}, NoDecay(horizon=2))
        first = manager.record_display(1, 10, 0.5, 0)
        manager.record_display(1, 20, 0.5, 0)
        manager.settle_click(1, 10, 0, handle=first)
        assert manager.expire_outstanding_by_advertiser(2) == {1: 1}
        assert manager.debt_carriers == set()
        assert manager.liability_cents(1) == 0
