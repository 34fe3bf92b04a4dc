"""Per-advertiser budget accounting with outstanding-ad tracking.

The budget manager is the engine's source of truth for how much each
advertiser can still spend.  It tracks settled charges against the daily
budget and maintains an :class:`repro.budgets.OutstandingLedger` per
advertiser so the throttled bid ``b̂_i`` can be formed for winner
determination (Section IV-A).

The books are event-driven: a tick costs the ads that expired and the
clicks that settled, not one walk over every ledger (DESIGN.md section
17).
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import AbstractSet, Dict, List, Optional, Set, Tuple

from repro.budgets.outstanding import ClickDecayModel, NoDecay, OutstandingLedger
from repro.budgets.throttle import ThrottleProblem
from repro.engine.changefeed import BudgetChanged
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
    through :meth:`record_display`, which queues the ad on one min-heap
    keyed by the first round its click probability is zero
    (:meth:`repro.budgets.outstanding.OutstandingAd.dead_round`), and
    keeps :attr:`debt_carriers` -- the advertisers whose ledger is not
    empty -- current; expiry pops what is due.  An ad recorded directly
    on a ledger is never queued for expiry and never indexed.

    Args:
        budgets_cents: Daily budget per advertiser id.  Advertisers not
            present are treated as unbudgeted (infinite budget).
        decay: Click-decay model for outstanding ads.
        changefeed: Optional
            :class:`repro.engine.changefeed.ChangeFeed`.  When present
            and active, the manager publishes a
            :class:`repro.engine.changefeed.BudgetChanged` event for
            every book movement -- click settlements, displays becoming
            outstanding debt, and outstanding-ad expiries -- so the
            cross-round caches learn about throttle-input changes from
            the source instead of from engine-side bookkeeping.
    """

    UNBUDGETED_CENTS = 10**12
    """Stand-in budget for unbudgeted advertisers (effectively infinite)."""

    def __init__(
        self,
        budgets_cents: Dict[int, int],
        decay: ClickDecayModel | None = None,
        changefeed=None,
    ) -> None:
        for advertiser_id, budget in budgets_cents.items():
            if budget < 0:
                raise BudgetError(
                    f"budget for advertiser {advertiser_id} must be >= 0"
                )
        self._budgets = dict(budgets_cents)
        self._spent: Dict[int, int] = {}
        self._decay = decay if decay is not None else NoDecay()
        self._ledgers: Dict[int, OutstandingLedger] = {}
        self._feed = changefeed
        # (dead_round, advertiser_id, handle) of every ad displayed and
        # not yet due; an entry whose ad was settled first is skipped
        # when it comes due.
        self._expiry: List[Tuple[float, int, int]] = []
        self._carriers: Set[int] = set()
        self._spent_moved: Set[int] = set()

    def _publish_change(self, advertiser_id: int) -> None:
        """Announce a book movement on the change feed, if anyone cares."""
        feed = self._feed
        if feed is not None and feed.active:
            feed.publish(BudgetChanged(advertiser_id))

    def _ledger(self, advertiser_id: int) -> OutstandingLedger:
        ledger = self._ledgers.get(advertiser_id)
        if ledger is None:
            ledger = OutstandingLedger(decay=self._decay)
            self._ledgers[advertiser_id] = ledger
        return ledger

    @property
    def decay_varies(self) -> bool:
        """Whether outstanding debt re-weighs as rounds pass.

        Under :class:`repro.budgets.outstanding.NoDecay` an ad's
        ``ctr_j`` is constant until the horizon prunes it (and pruning
        publishes ``BudgetChanged``), so a throttle problem built for
        one round stays valid in later rounds with no event.  Any other
        decay model moves every debt-carrying advertiser's b̂ each
        round; incremental consumers must then treat cached problems as
        valid only within the round they were built.
        """
        return not isinstance(self._decay, NoDecay)

    def budget_cents(self, advertiser_id: int) -> int:
        """The advertiser's daily budget (huge sentinel if unbudgeted)."""
        return self._budgets.get(advertiser_id, self.UNBUDGETED_CENTS)

    def remaining_cents(self, advertiser_id: int) -> int:
        """``β_i`` -- budget minus settled charges (never negative)."""
        remaining = self.budget_cents(advertiser_id) - self._spent.get(
            advertiser_id, 0
        )
        return max(0, remaining)

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
        """Register a displayed ad as outstanding debt.

        Returns:
            The ledger handle identifying exactly this outstanding ad.
            Thread it to :meth:`settle_click` when the click arrives:
            the handle is the only unambiguous name when an advertiser
            wins several same-price slots in one round.
        """
        ad = self._ledger(advertiser_id).record_display(
            price_cents, ctr, round_index
        )
        heappush(
            self._expiry,
            (ad.dead_round(self._decay), advertiser_id, ad.handle),
        )
        self._carriers.add(advertiser_id)
        self._publish_change(advertiser_id)
        return ad.handle

    def settle_click(
        self,
        advertiser_id: int,
        price_cents: int,
        display_round: int,
        handle: Optional[int] = None,
    ) -> ChargeResult:
        """Charge a click, forgiving any shortfall.

        Also clears the clicked ad from the outstanding ledger.  With a
        ``handle`` (from :meth:`record_display`) the resolve is O(1) and
        names exactly the displayed ad that was clicked; an expired
        handle (the ad aged past the ledger horizon) settles the charge
        without touching the ledger.  Without a handle -- legacy callers
        only -- the first outstanding ad matching ``(price_cents,
        display_round)`` is cleared, which picks the *wrong* ad whenever
        the advertiser holds two same-price same-round ads with
        different CTRs and skews every later b̂ built from this ledger.
        """
        ledger = self._ledgers.get(advertiser_id)
        if ledger is not None:
            if handle is not None:
                if ledger.has_handle(handle):
                    ledger.resolve_handle(handle)
            else:
                for ad in ledger.ads:
                    if (
                        ad.price_cents == price_cents
                        and ad.displayed_round == display_round
                    ):
                        ledger.resolve(ad)
                        break
            if not ledger:
                self._carriers.discard(advertiser_id)
        remaining = self.remaining_cents(advertiser_id)
        charged = min(price_cents, remaining)
        if charged:
            self._spent[advertiser_id] = (
                self.spent_cents(advertiser_id) + charged
            )
            self._spent_moved.add(advertiser_id)
        self._publish_change(advertiser_id)
        return ChargeResult(charged, price_cents - charged)

    def expire_outstanding(self, round_index: int) -> int:
        """Drop outstanding ads whose click probability decayed to zero.

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
        every ledger, and publishes one ``BudgetChanged`` per advertiser
        that lost ads, in ascending id order (as is the returned dict).
        """
        heap = self._expiry
        counts: Dict[int, int] = {}
        while heap and heap[0][0] <= round_index:
            _, advertiser_id, handle = heappop(heap)
            ledger = self._ledgers[advertiser_id]
            if ledger.has_handle(handle):
                ledger.resolve_handle(handle)
                counts[advertiser_id] = counts.get(advertiser_id, 0) + 1
        expired = dict(sorted(counts.items()))
        for advertiser_id in expired:
            if not self._ledgers[advertiser_id]:
                self._carriers.discard(advertiser_id)
            self._publish_change(advertiser_id)
        return expired

    def throttle_problem(
        self,
        advertiser_id: int,
        bid_cents: int,
        num_auctions: int,
        round_index: int,
    ) -> ThrottleProblem:
        """Build the Section IV throttle inputs for one advertiser."""
        remaining = self.remaining_cents(advertiser_id)
        outstanding = self._ledger(advertiser_id).snapshot(round_index)
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

    def drain_spent_changes(self) -> Dict[int, int]:
        """Settled spend of each advertiser charged since the last drain.

        One consumer: the engine's columnar spent column, which applies
        these and so never rebuilds itself from :meth:`spent_snapshot`.
        """
        moved = self._spent_moved
        if not moved:
            return {}
        self._spent_moved = set()
        spent = self._spent
        return {advertiser_id: spent[advertiser_id] for advertiser_id in moved}

    def spent_snapshot(self) -> Dict[int, int]:
        """Settled spend per advertiser (zero-spend advertisers omitted).

        A frozen copy of the books at this instant, ordered by
        advertiser id -- a sort over every advertiser ever charged, for
        reports and :class:`repro.engine.sharded.ShardedEngine`, not for
        the per-tick path.  The serving differential suite records one
        snapshot per served query and asserts the whole *trajectory* --
        not just the final balance -- is identical between
        query-at-a-time serving and single-phrase batch replay.
        """
        return {
            advertiser_id: spent
            for advertiser_id, spent in sorted(self._spent.items())
            if spent
        }
