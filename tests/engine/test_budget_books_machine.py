"""The engine's display blocks against the reference's list ledgers.

:class:`repro.engine.budget_manager.BudgetManager` books a round's
budgeted displays as one block, drops whole blocks at the horizon,
counts CTR-0 ads (dead on display) at the next expiry, and keeps each
advertiser's outstanding count and liability as running values.  The
oracle is the reference's own books,
:class:`repro.reference.WalkingBooks`: one
:class:`repro.budgets.outstanding.OutstandingLedger` per advertiser and
a :meth:`~repro.budgets.outstanding.OutstandingLedger.prune` walk over
every ledger per expiry.  A hypothesis machine drives both with the same
random traffic -- displays at rounds that never decrease (``base_ctr =
0`` included), settlements by live handle and by a handle that is
already gone, expiries at repeated and non-monotone rounds -- at a
horizon of three rounds, at a horizon of one (every ad dies the round
after its display) and with most displays at CTR 0.  Each book issues
its own handles; the machine threads each one its own.  The market
mixes budgeted advertisers with an unbudgeted one, which keeps no books
at all: handle ``-1``, every click charged in full, never a mover
(DESIGN section 5).  A bad row anywhere, or a round below the newest
block, refuses the whole batch.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.budgets.throttle import ThrottleProblem
from repro.engine.budget_manager import BudgetManager
from repro.errors import BudgetError
from repro.reference import WalkingBooks

ADVERTISERS = (1, 2, 3, 7)
BUDGETS = {1: 400, 2: 150, 3: 0}  # 7 is unbudgeted
CTRS = (0.0, 0.05, 0.5, 1.0)
"""The display CTRs a machine draws from, by index."""

ADS = st.lists(
    st.tuples(
        st.sampled_from(ADVERTISERS),
        st.integers(min_value=0, max_value=120),
        st.integers(min_value=0, max_value=len(CTRS) - 1),
    ),
    max_size=9,
)


def _budgeted(advertisers: Iterable[int]) -> List[int]:
    """The distinct budgeted advertisers among ``advertisers``, ascending:
    whose books a call moves."""
    return sorted(set(advertisers) & set(BUDGETS))


class BudgetBooksMachine(RuleBasedStateMachine):
    """Display blocks and walking list ledgers, in lockstep."""

    horizon = 3
    ctrs = CTRS

    def __init__(self) -> None:
        super().__init__()
        self.manager = BudgetManager(BUDGETS, self.horizon)
        self.oracle = WalkingBooks(BUDGETS, self.horizon)
        self.round = 0
        # Every ad ever displayed, settled and expired ones included:
        # (advertiser, price, round, manager's handle, oracle's handle).
        self.issued: List[Tuple[int, int, int, int, int]] = []
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

    def _display(self, ads, step) -> None:
        # Rounds never decrease, and a round whose block was dropped is
        # closed.
        self.round = max(self.round + step, self.manager._open_round)
        ads = [
            (advertiser, price, self.ctrs[at]) for advertiser, price, at in ads
        ]
        advertisers, prices, ctrs = (
            [ad[column] for ad in ads] for column in range(3)
        )
        block = self.manager._blocks.get(self.round)
        first = block.size if block is not None else 0
        mine = self.manager.record_displays(
            advertisers, prices, ctrs, self.round
        )
        theirs = self.oracle.record_displays(
            advertisers, prices, ctrs, self.round
        )
        # -1 on both books exactly for the unbudgeted rows; the budgeted
        # rows take the next cells of the round's block, in order.
        unbudgeted = [advertiser not in BUDGETS for advertiser in advertisers]
        assert [h == -1 for h in mine] == [h == -1 for h in theirs] == unbudgeted
        cells = [h for h in mine if h != -1]
        assert cells == list(range(first, first + len(cells)))
        self.issued.extend(
            (advertiser, price, self.round, handle, oracle_handle)
            for advertiser, price, handle, oracle_handle in zip(
                advertisers, prices, mine, theirs
            )
        )
        # Exactly the batch's distinct budgeted advertisers, ascending,
        # once each.
        assert self._movers() == _budgeted(advertisers)

    @rule(
        advertiser=st.sampled_from(ADVERTISERS),
        price=st.integers(min_value=0, max_value=120),
        ctr_at=st.integers(min_value=0, max_value=len(CTRS) - 1),
        step=st.integers(min_value=0, max_value=2),
    )
    def display(self, advertiser, price, ctr_at, step) -> None:
        self._display([(advertiser, price, ctr_at)], step)

    @rule(ads=ADS, step=st.integers(min_value=0, max_value=2))
    def display_batch(self, ads, step) -> None:
        self._display(ads, step)

    def _blocks(self) -> Dict[int, Tuple[int, Dict[int, Dict]]]:
        """A copy of the manager's blocks: size and outstanding cells."""
        return {
            display_round: (block.size, {a: dict(c) for a, c in block.items()})
            for display_round, block in self.manager._blocks.items()
        }

    def _refused(self, advertisers, prices, ctrs, round_index) -> None:
        """Both books refuse the batch, and neither moves."""
        blocks = self._blocks()
        carriers = set(self.manager.debt_carriers)
        for books in (self.manager, self.oracle):
            with pytest.raises(BudgetError):
                books.record_displays(advertisers, prices, ctrs, round_index)
        assert blocks == self._blocks()
        assert self.manager.debt_carriers == carriers
        assert self._movers() == []

    @rule(
        data=st.data(),
        bad=st.sampled_from(
            (
                (-1, 0.5), (10, -0.01), (10, 1.5), (10, float("nan")),
                (2.5, 0.5), (True, 0.5), (float("inf"), 0.5),
            )
        ),
    )
    def display_batch_with_a_bad_row(self, data, bad) -> None:
        # A bad row anywhere refuses the whole batch: no ad booked, no
        # cell written, nothing published.
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
        self._refused(
            *([ad[column] for ad in ads] for column in range(3)), self.round
        )

    @rule(ads=ADS, below=st.integers(min_value=1, max_value=3))
    def display_at_a_closed_round(self, ads, below) -> None:
        # Below the newest block, or at or below a dropped one.
        manager = self.manager
        open_round = manager._open_round
        if open_round == float("-inf"):
            return
        assert self.round <= open_round <= self.round + 1
        with pytest.raises(BudgetError, match="the books are at round"):
            manager.record_displays(
                *([ad[column] for ad in ads] for column in range(2)),
                [self.ctrs[ad[2]] for ad in ads],
                open_round - below,
            )
        assert self._movers() == []

    def _settle(self, clicks) -> None:
        # Each book settles with the handle it issued.
        totals = self.manager.settle_clicks(
            [(advertiser, price, shown, mine)
             for advertiser, price, shown, mine, _ in clicks]
        )
        assert totals == self.oracle.settle_clicks(
            [(advertiser, price, shown, theirs)
             for advertiser, price, shown, _, theirs in clicks]
        )
        assert self._movers() == _budgeted(click[0] for click in clicks)

    @rule(data=st.data())
    def settle_batch(self, data) -> None:
        # A tick's clicks in one call: live, settled and expired handles
        # mixed, repeats of one advertiser charged in order.
        if self.issued:
            self._settle(
                data.draw(st.lists(st.sampled_from(self.issued), max_size=6))
            )

    @rule(data=st.data())
    def settle_by_handle(self, data) -> None:
        if not self.issued:
            return
        advertiser, price, shown, mine, theirs = data.draw(
            st.sampled_from(self.issued)
        )
        charge = self.manager.settle_click(advertiser, price, shown, mine)
        assert (charge.charged_cents, charge.forgiven_cents) == (
            self.oracle.settle_clicks([(advertiser, price, shown, theirs)])
        )
        assert self._movers() == _budgeted([advertiser])

    @rule(data=st.data())
    def settle_a_handle_that_is_gone(self, data) -> None:
        # Its block expired, or its cell is settled: the charge settles
        # and neither book's outstanding ads move.
        blocks = self.manager._blocks
        gone = [
            entry
            for entry in self.issued
            if entry[0] in BUDGETS
            and entry[3] not in blocks.get(entry[2], {}).get(entry[0], {})
        ]
        if not gone:
            return
        before = self.manager.outstanding_counts()
        self._settle([data.draw(st.sampled_from(gone))])
        assert self.manager.outstanding_counts() == before
        assert self.oracle.outstanding_counts() == before

    @rule(offset=st.integers(min_value=-6, max_value=6))
    def expire(self, offset) -> None:
        round_index = self.round + offset
        expired = self.manager.expire_outstanding_by_advertiser(round_index)
        assert expired == self.oracle.expire(round_index)
        assert list(expired) == sorted(expired)
        # One mover per advertiser that lost ads.
        assert self._movers() == sorted(expired)
        # No block left that this round has seen die.
        assert all(
            display_round + self.horizon > round_index
            for display_round in self.manager._blocks
        )

    @rule(offset=st.integers(min_value=-6, max_value=6))
    def expire_total(self, offset) -> None:
        round_index = self.round + offset
        total = self.manager.expire_outstanding(round_index)
        expected = self.oracle.expire(round_index)
        assert total == sum(expected.values())
        assert self._movers() == sorted(expected)

    @invariant()
    def books_agree(self) -> None:
        manager, oracle = self.manager, self.oracle
        counts = oracle.outstanding_counts()
        assert manager.outstanding_counts() == counts
        assert set(manager.debt_carriers) == set(counts)
        blocks = manager._blocks
        assert list(blocks) == sorted(blocks)
        assert all(block.size for block in blocks.values())
        # Every cell still on a block is an outstanding ad.
        assert sum(
            len(cells) for block in blocks.values() for cells in block.values()
        ) == sum(counts.values())
        for advertiser in ADVERTISERS:
            ledger = oracle.ledgers.get(advertiser)
            assert manager.liability_cents(advertiser) == (
                ledger.liability_cents if ledger is not None else 0
            )
            remaining = oracle.remaining_cents(advertiser)
            for round_index in (
                self.round, self.round + self.horizon - 1, self.round + 20
            ):
                # The same operands in the same order as the walk's.
                assert manager.throttle_problem(
                    advertiser, 60, 2, round_index
                ) == ThrottleProblem(
                    min(60, remaining), remaining, 2,
                    ledger.snapshot(round_index) if ledger else (),
                )

    @invariant()
    def drained_books_follow_the_books(self) -> None:
        # What the engine's standing score columns are fed: every
        # advertiser a call moved, once, with its books as they stand.
        self._movers()
        assert self.manager.drain_book_changes() == ([], [], [], [])
        counts = self.oracle.outstanding_counts()
        for advertiser in ADVERTISERS:
            ledger = self.oracle.ledgers.get(advertiser)
            books = (
                self.oracle.remaining_cents(advertiser),
                ledger.liability_cents if ledger is not None else 0,
                advertiser in counts,
            )
            if advertiser not in BUDGETS:
                # Unbudgeted: no books, so never a mover, and the
                # sentinel remaining whatever it spent.
                assert advertiser not in self.drained_books
                assert ledger is None
                assert books[0] == BudgetManager.UNBUDGETED_CENTS
            # Never drained means never moved.
            budget = BUDGETS.get(advertiser, BudgetManager.UNBUDGETED_CENTS)
            assert self.drained_books.get(advertiser, (budget, 0, False)) == books
            assert books == (
                self.manager.remaining_cents(advertiser),
                self.manager.liability_cents(advertiser),
                advertiser in self.manager.debt_carriers,
            )
        assert self.manager.spent_snapshot() == self.oracle.spent_snapshot()


def _machine_case(**attributes):
    machine = type("Machine", (BudgetBooksMachine,), attributes)
    case = machine.TestCase
    case.settings = settings(
        max_examples=30, stateful_step_count=40, deadline=None
    )
    return case


TestNoDecayBooks = _machine_case(horizon=3)
# Every live ad dies the round after its display.
TestHorizonOneBooks = _machine_case(horizon=1)
# Three displays in four are dead on display.
TestCtrZeroDisplayBooks = _machine_case(horizon=3, ctrs=(0.0, 0.0, 0.0, 0.5))


class TestDeadRound:
    """The round the oldest block dies at is the first round the walking
    ledger's snapshot leaves its ads out."""

    @pytest.mark.parametrize("horizon", (1, 3, 17))
    @pytest.mark.parametrize("base_ctr", CTRS)
    @pytest.mark.parametrize("displayed", (0, 5))
    def test_matches_a_scan_over_rounds(self, horizon, base_ctr, displayed):
        manager = BudgetManager({1: 100}, horizon)
        oracle = WalkingBooks({1: 100}, horizon)
        manager.record_display(1, 40, base_ctr, displayed)
        oracle.record_displays([1], [40], [base_ctr], displayed)
        dead = manager.earliest_dead_round
        assert dead == displayed + horizon
        ledger = oracle.ledgers[1]
        for round_index in range(-3, displayed + horizon + 3):
            problem = manager.throttle_problem(1, 40, 1, round_index)
            assert list(problem.outstanding) == ledger.snapshot(round_index)
            if base_ctr > 0.0:
                assert (ledger.snapshot(round_index) == []) == (
                    round_index >= dead
                )

    def test_normally_the_horizon(self):
        manager = BudgetManager({1: 100}, 17)
        manager.record_display(1, 40, 0.5, 7)
        assert manager.earliest_dead_round == 24

    def test_dead_on_display_is_counted_by_the_next_expiry(self):
        manager = BudgetManager({1: 100}, 17)
        manager.record_display(1, 40, 0.0, 7)
        assert manager.earliest_dead_round == 24
        assert manager.expire_outstanding(-5) == 1
        assert manager.expire_outstanding(-5) == 0
        assert manager.debt_carriers == set()


class TestSettledCells:
    def test_settled_ads_are_skipped_when_their_block_dies(self):
        manager = BudgetManager({1: 100}, 2)
        first = manager.record_display(1, 10, 0.5, 0)
        manager.record_display(1, 20, 0.5, 0)
        manager.settle_click(1, 10, 0, handle=first)
        assert manager.expire_outstanding_by_advertiser(2) == {1: 1}
        assert manager.debt_carriers == set()
        assert manager.liability_cents(1) == 0
