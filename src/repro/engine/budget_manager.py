"""Per-advertiser budget accounting with outstanding-ad tracking.

The budget manager is the engine's source of truth for how much each
advertiser can still spend.  It tracks settled charges against the daily
budget and maintains an :class:`repro.budgets.OutstandingLedger` per
advertiser so the throttled bid ``b̂_i`` can be formed for winner
determination (Section IV-A).

The books are event-driven: a tick costs the ads that expired and the
clicks that settled, not one walk over every ledger (DESIGN.md section
5).  Their unit of work is a stage's *batch* -- every ad a round
displayed, every click a tick delivered -- booked in one call that
notes each advertiser it moved once (DESIGN.md section 8).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import chain
from typing import AbstractSet, Dict, Iterable, List, Sequence, Set, Tuple

from repro.budgets.outstanding import OutstandingLedger, check_displays, check_horizon
from repro.budgets.throttle import ThrottleProblem
from repro.errors import BudgetError

__all__ = ["BudgetManager", "ChargeResult"]


@dataclass(frozen=True)
class ChargeResult:
    """Outcome of charging one click.

    Attributes:
        charged_cents: Amount actually collected.
        forgiven_cents: Shortfall beyond the remaining budget.
    """

    charged_cents: int
    forgiven_cents: int


class BudgetManager:
    """Tracks budgets, settled spend, and outstanding ads.

    The manager is the only writer of its ledgers.  Every display goes
    through :meth:`record_displays`, which queues the ads on one
    min-heap keyed by the first round each is dead -- ``round_index +
    horizon``, or ``-inf`` for a CTR-0 ad -- one entry per run of an
    advertiser's consecutive handles that die together -- and keeps
    :attr:`debt_carriers` -- the advertisers whose ledger is not empty
    -- current; expiry pops what is due.  An
    ad recorded directly on a ledger is never queued for expiry and
    never indexed.

    An advertiser absent from ``budgets_cents`` is unbudgeted and keeps
    no books: ``β = ∞`` never throttles its bid and always charges a
    click in full, so its displays take handle ``-1`` and no ledger,
    its clicks only add to the spend, and its ``remaining_cents`` is the
    constant :attr:`UNBUDGETED_CENTS` (DESIGN.md section 5).

    Args:
        budgets_cents: Daily budget per advertiser id.  Advertisers not
            present are unbudgeted (infinite budget).
        horizon: Rounds an outstanding ad stays alive after its
            display (:class:`repro.budgets.OutstandingLedger`).

    Raises:
        BudgetError: On a negative budget or a bad horizon.
    """

    UNBUDGETED_CENTS = 10**12
    """Stand-in budget for unbudgeted advertisers (effectively infinite)."""

    def __init__(
        self,
        budgets_cents: Dict[int, int],
        horizon: int = 1_000_000,
    ) -> None:
        for advertiser_id, budget in budgets_cents.items():
            if budget < 0:
                raise BudgetError(
                    f"budget for advertiser {advertiser_id} must be >= 0"
                )
        self._budgets = dict(budgets_cents)
        self._spent: Dict[int, int] = {}
        check_horizon(horizon)
        self._horizon = horizon
        self._ledgers: Dict[int, OutstandingLedger] = {}
        # (dead_round, advertiser_id, first_handle, count): a run of
        # consecutive handles displayed and not yet due; ads of the run
        # that were settled first are skipped when it comes due.
        self._expiry: List[Tuple[float, int, int, int]] = []
        self._carriers: Set[int] = set()
        # Whose books moved since drain_book_changes last handed them out.
        self._moved: Set[int] = set()

    def budget_cents(self, advertiser_id: int) -> int:
        """The advertiser's daily budget (huge sentinel if unbudgeted)."""
        return self._budgets.get(advertiser_id, self.UNBUDGETED_CENTS)

    def remaining_cents(self, advertiser_id: int) -> int:
        """``β_i`` -- budget minus settled charges (never negative);
        :attr:`UNBUDGETED_CENTS` whatever an unbudgeted advertiser spent."""
        budget = self._budgets.get(advertiser_id)
        if budget is None:
            return self.UNBUDGETED_CENTS
        return max(0, budget - self._spent.get(advertiser_id, 0))

    def spent_cents(self, advertiser_id: int) -> int:
        """Total settled charges so far."""
        return self._spent.get(advertiser_id, 0)

    def record_display(
        self,
        advertiser_id: int,
        price_cents: int,
        ctr: float,
        round_index: int,
    ) -> int:
        """Register one displayed ad: a :meth:`record_displays` of one.

        Returns:
            The ledger handle identifying exactly this outstanding ad.
        """
        return self.record_displays(
            (advertiser_id,), (price_cents,), (ctr,), round_index
        )[0]

    def record_displays(
        self,
        advertiser_ids: Sequence[int],
        prices_cents: Sequence[int],
        ctrs: Sequence[float],
        round_index: int,
    ) -> List[int]:
        """Register a stage's displayed ads as outstanding debt.

        The three columns are parallel, one row per ad, in display
        order.  The batch is validated before the books are touched, so
        a bad row leaves them as they were.  Each budgeted advertiser's
        ads are appended to its ledger in display order and queued for
        expiry as one entry per run of consecutive handles sharing a dead
        round (normally one run: only a CTR-0 ad, dead on display, breaks
        it).

        Returns:
            The ledger handle of each ad, parallel to the columns
            (``-1`` for an unbudgeted advertiser's).  Thread it to
            :meth:`settle_clicks` when the click arrives: the handle is
            the only unambiguous name when an advertiser wins several
            same-price slots in one round.

        Raises:
            BudgetError: On a negative price, a CTR outside ``[0, 1]``
                or columns of different lengths.
        """
        check_displays(prices_cents, ctrs)
        if len(advertiser_ids) != len(ctrs):
            raise BudgetError(
                f"{len(advertiser_ids)} advertisers for {len(ctrs)} ads"
            )
        budgets = self._budgets
        ledgers = self._ledgers
        alive_until = round_index + self._horizon
        handles: List[int] = []
        # [dead_round, advertiser_id, first_handle, count]: the run each
        # advertiser's latest ad belongs to, and the runs a change of
        # dead round closed before the batch ended.
        open_runs: Dict[int, List] = {}
        closed_runs: List[List] = []
        for advertiser_id, price_cents, ctr in zip(
            advertiser_ids, prices_cents, ctrs
        ):
            if advertiser_id not in budgets:
                handles.append(-1)
                continue
            ledger = ledgers.get(advertiser_id)
            if ledger is None:
                ledger = ledgers[advertiser_id] = OutstandingLedger(
                    self._horizon
                )
            handle = ledger.add(price_cents, ctr, round_index)
            handles.append(handle)
            dead_round = alive_until if ctr > 0.0 else -math.inf
            run = open_runs.get(advertiser_id)
            if run is not None and run[0] == dead_round:
                run[3] += 1
            else:
                if run is not None:
                    closed_runs.append(run)
                open_runs[advertiser_id] = [
                    dead_round, advertiser_id, handle, 1
                ]
        for run in chain(closed_runs, open_runs.values()):
            heappush(self._expiry, tuple(run))
        self._carriers.update(open_runs)
        self._moved.update(open_runs)
        return handles

    def settle_click(
        self,
        advertiser_id: int,
        price_cents: int,
        display_round: int,
        handle: int,
    ) -> ChargeResult:
        """Charge one click: a :meth:`settle_clicks` of one."""
        return ChargeResult(*self.settle_clicks(
            ((advertiser_id, price_cents, display_round, handle),)
        ))

    def settle_clicks(
        self,
        clicks: Iterable[Tuple[int, int, int, int]],
    ) -> Tuple[int, int]:
        """Charge a stage's clicks in order, forgiving any shortfall.

        Each click is ``(advertiser_id, price_cents, display_round,
        handle)`` and also clears the clicked ad -- the one
        :meth:`record_displays` returned ``handle`` for -- from the
        outstanding ledger, in O(1); an expired handle (the ad aged past
        the ledger horizon) settles the charge without touching the
        ledger.  An unbudgeted advertiser's click is charged in full and
        moves no books.

        Returns:
            ``(charged_cents, forgiven_cents)`` over the batch.
        """
        total_charged = total_forgiven = 0
        settled: Set[int] = set()
        budgets, spent = self._budgets, self._spent
        for advertiser_id, price_cents, _, handle in clicks:
            budget = budgets.get(advertiser_id)
            if budget is None:
                charged = price_cents
            else:
                ledger = self._ledgers.get(advertiser_id)
                if ledger is not None:
                    ledger.discard_handles(handle)
                    if not ledger:
                        self._carriers.discard(advertiser_id)
                remaining = max(0, budget - spent.get(advertiser_id, 0))
                charged = min(price_cents, remaining)
                settled.add(advertiser_id)
            if charged:
                spent[advertiser_id] = spent.get(advertiser_id, 0) + charged
            total_charged += charged
            total_forgiven += price_cents - charged
        self._moved.update(settled)
        return total_charged, total_forgiven

    def expire_outstanding(self, round_index: int) -> int:
        """Drop the outstanding ads that are dead at ``round_index``.

        Costs the ads that are due, however many ledgers are idle.
        """
        return sum(self.expire_outstanding_by_advertiser(round_index).values())

    def expire_outstanding_by_advertiser(
        self, round_index: int
    ) -> Dict[int, int]:
        """Per-advertiser expiry counts (zero-count advertisers omitted).

        Same expiry as :meth:`expire_outstanding`, but reporting *who*
        lost outstanding ads: an expiry shrinks the advertiser's
        outstanding debt and therefore moves its throttled bid, so the
        engine's dirty-set tracking needs the ids, not just the total.
        Removes exactly the ads ``ledger.prune(round_index)`` would on
        every ledger, and notes every advertiser that lost ads for
        :meth:`drain_book_changes`.  The returned dict is in ascending
        id order.
        """
        heap = self._expiry
        ledgers = self._ledgers
        counts: Dict[int, int] = {}
        while heap and heap[0][0] <= round_index:
            _, advertiser_id, first, count = heappop(heap)
            removed = ledgers[advertiser_id].discard_handles(first, count)
            if removed:
                counts[advertiser_id] = counts.get(advertiser_id, 0) + removed
        expired = dict(sorted(counts.items()))
        for advertiser_id in expired:
            if not ledgers[advertiser_id]:
                self._carriers.discard(advertiser_id)
        self._moved.update(expired)
        return expired

    @property
    def earliest_dead_round(self) -> float:
        """First round at which an ad still queued for expiry is dead.

        ``inf`` with nothing queued.  Before that round every ledger's
        :meth:`repro.budgets.outstanding.OutstandingLedger.snapshot`
        keeps all its ads at their display CTR, so a
        :meth:`throttle_problem` built for one such round is the problem
        of every other until the advertiser's books move.  An expiry leaves it past the round it
        ran for; a caller that scores a later round without expiring
        first finds it at or below that round.
        """
        return self._expiry[0][0] if self._expiry else math.inf

    def throttle_problem(
        self,
        advertiser_id: int,
        bid_cents: int,
        num_auctions: int,
        round_index: int,
    ) -> ThrottleProblem:
        """Build the Section IV throttle inputs for one advertiser."""
        remaining = self.remaining_cents(advertiser_id)
        ledger = self._ledgers.get(advertiser_id)
        outstanding = ledger.snapshot(round_index) if ledger is not None else []
        return ThrottleProblem(
            bid_cents=min(bid_cents, remaining),
            budget_cents=remaining,
            num_auctions=num_auctions,
            outstanding=outstanding,
        )

    @property
    def debt_carriers(self) -> AbstractSet[int]:
        """Ids of the advertisers holding at least one outstanding ad.

        The live index (do not mutate), kept current by every display,
        settlement and expiry, so a scoring stage finds the advertisers
        whose throttle is not the closed form without visiting a ledger.
        """
        return self._carriers

    def liability_cents(self, advertiser_id: int) -> int:
        """Sum of the advertiser's outstanding prices, in O(1).

        An upper bound on the ``ω_l`` of the :meth:`throttle_problem`
        built at any round (see
        :attr:`repro.budgets.outstanding.OutstandingLedger.liability_cents`).
        """
        ledger = self._ledgers.get(advertiser_id)
        return ledger.liability_cents if ledger is not None else 0

    def outstanding_counts(self) -> Dict[int, int]:
        """Outstanding-ad count per debt carrier (for reports)."""
        ledgers = self._ledgers
        return {
            advertiser_id: len(ledgers[advertiser_id])
            for advertiser_id in self._carriers
        }

    def drain_book_changes(
        self,
    ) -> Tuple[List[int], List[int], List[int], List[bool]]:
        """The books of every advertiser moved since the last drain.

        Whoever a :meth:`record_displays`, :meth:`settle_clicks` or
        expiry touched, with what the Section IV quick test reads of
        each.  One consumer: the engine's standing score columns
        (DESIGN.md section 6), which re-derive these advertisers' rows
        and nobody else's.

        Returns:
            ``(advertiser_ids, remaining_cents, liability_cents,
            carries_debt)``: parallel columns, one entry per mover, in
            no particular order.  Every mover is budgeted: an unbudgeted
            advertiser's books never move, and its row stands at
            :attr:`UNBUDGETED_CENTS`.
        """
        ids = list(self._moved)
        self._moved.clear()
        # remaining_cents / liability_cents, inlined: this pass is paid
        # per mover on every served tick.
        budget, spent = self._budgets.__getitem__, self._spent.get
        ledger_of = self._ledgers.get
        return (
            ids,
            [max(0, budget(i) - spent(i, 0)) for i in ids],
            [
                ledger.liability_cents if (ledger := ledger_of(i)) is not None else 0
                for i in ids
            ],
            list(map(self._carriers.__contains__, ids)),
        )

    def spent_snapshot(self) -> Dict[int, int]:
        """Settled spend per advertiser (zero-spend advertisers omitted).

        A frozen copy of the books at this instant, ordered by
        advertiser id -- a sort over every advertiser ever charged, for
        reports, not for the per-tick path.  The serving differential
        suite records one snapshot per served query and asserts the
        whole *trajectory* -- not just the final balance -- is identical
        between query-at-a-time serving and single-phrase batch replay.
        """
        return {
            advertiser_id: spent
            for advertiser_id, spent in sorted(self._spent.items())
            if spent
        }
