"""Per-advertiser budget accounting over one display block per round.

The budget manager is the engine's source of truth for how much each
advertiser can still spend, and for the outstanding ads the throttled
bid ``b̂_i`` is formed against (Section IV-A).

An ad owes its price with its display CTR for exactly ``horizon``
rounds, so every ad a round displays dies in the same later round.  The
books say so: one *display block* per round holds that round's budgeted
displays, grouped by advertiser, and an expiry drops whole blocks.  Each
advertiser's outstanding count and liability are running values that a
block write, a settlement or an expiry moves once, so a tick costs the
ads it booked, settled and expired, never the advertisers on file
(DESIGN.md sections 5 and 8).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import AbstractSet, Dict, Iterable, List, Sequence, Set, Tuple

from repro.budgets.outstanding import check_displays, check_horizon
from repro.budgets.throttle import ThrottleProblem
from repro.core.money import UNBUDGETED_CENTS, check_cents
from repro.errors import BudgetError

__all__ = ["BudgetManager", "ChargeResult"]

_CELL_PRICE = itemgetter(0)
_CLICK_PRICE = itemgetter(1)


@dataclass(frozen=True)
class ChargeResult:
    """Outcome of charging one click.

    Attributes:
        charged_cents: Amount actually collected.
        forgiven_cents: Shortfall beyond the remaining budget.
    """

    charged_cents: int
    forgiven_cents: int


class _Block(dict):
    """One round's budgeted displays that are still outstanding, by
    advertiser: ``{advertiser_id: {cell: (price_cents, ctr)}}``, each
    advertiser's cells in display order.  A handle is a cell: the ad's
    index among the round's budgeted displays (:attr:`size` of them).
    Settling or expiring an ad pops its cell."""

    __slots__ = ("size",)

    def __init__(self) -> None:
        super().__init__()
        self.size = 0


class BudgetManager:
    """Tracks budgets, settled spend, and outstanding ads.

    :meth:`record_displays` writes the budgeted displays into the block
    of their round.  Rounds never go back (a display below the newest
    block, or at a round whose block was dropped, is refused), so the
    blocks stand in display order, at most ``horizon + 1`` of them when
    the caller expires every round.  A handle names a cell of its
    round's block, and a click carries its display round.  An expiry at
    round ``r`` drops every block with ``round + horizon <= r``; a CTR-0
    ad is dead on display, and the next expiry counts it.

    An advertiser absent from ``budgets_cents`` is unbudgeted and keeps
    no books: ``β = ∞`` never throttles its bid and always charges a
    click in full, so its displays take handle ``-1`` and no cell, its
    clicks only add to the spend, and its ``remaining_cents`` is the
    constant :attr:`UNBUDGETED_CENTS` (DESIGN.md section 5).

    Args:
        budgets_cents: Daily budget per advertiser id.  Advertisers not
            present are unbudgeted (infinite budget).
        horizon: Rounds an outstanding ad stays alive after its display.

    Raises:
        BudgetError: On a budget that is not int cents ``>= 0``
            (:func:`repro.core.money.check_cents`) or a bad horizon.
    """

    UNBUDGETED_CENTS = UNBUDGETED_CENTS
    """Stand-in budget for unbudgeted advertisers (effectively infinite)."""

    def __init__(
        self,
        budgets_cents: Dict[int, int],
        horizon: int = 1_000_000,
    ) -> None:
        check_cents(budgets_cents.values(), "a budget")
        check_horizon(horizon)
        self._budgets = dict(budgets_cents)
        self._spent: Dict[int, int] = {}
        self._horizon = horizon
        # Display round -> its block, rounds ascending, and the lowest
        # round a display may take: the newest block's, or one past the
        # last block dropped, so a handle never names two ads.
        self._blocks: Dict[int, _Block] = {}
        self._open_round = -math.inf
        # (round, advertiser, cell) of the CTR-0 ads booked since the
        # last expiry.
        self._dead_on_display: List[Tuple[int, int, int]] = []
        # Running outstanding count and liability of each debt carrier.
        self._counts: Dict[int, int] = {}
        self._owed: Dict[int, int] = {}
        # Whose books moved since drain_book_changes last handed them out.
        self._moved: Set[int] = set()

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
            The handle identifying exactly this outstanding ad.
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
        order.  The batch is checked whole before the books are touched,
        so a bad row leaves them as they were; then its budgeted rows
        are written to the block of ``round_index``, and the running
        count and liability of each advertiser among them move.

        Returns:
            The handle of each ad, parallel to the columns (``-1`` for
            an unbudgeted advertiser's).  Thread it, with the display
            round, to :meth:`settle_clicks` when the click arrives: the
            handle is the only unambiguous name when an advertiser wins
            several same-price slots in one round.

        Raises:
            BudgetError: On a price that is not int cents ``>= 0``, a
                CTR outside ``[0, 1]``, columns of different lengths, or
                a round below the newest block's or at a dropped one.
        """
        check_displays(prices_cents, ctrs)
        if len(advertiser_ids) != len(ctrs):
            raise BudgetError(
                f"{len(advertiser_ids)} advertisers for {len(ctrs)} ads"
            )
        return self._record_displays(
            advertiser_ids, prices_cents, ctrs, round_index
        )

    def _record_displays(
        self,
        advertiser_ids: Sequence[int],
        prices_cents: Sequence[int],
        ctrs: Sequence[float],
        round_index: int,
    ) -> List[int]:
        """:meth:`record_displays` of a batch its caller has checked
        (:func:`repro.budgets.outstanding.check_displays`, parallel
        columns): the engines check a round's displays once for the
        books and the click model together."""
        if round_index < self._open_round:
            raise BudgetError(
                f"a display at round {round_index}: the books are at round "
                f"{self._open_round}"
            )
        self._open_round = round_index
        budgets = self._budgets
        if not budgets:
            return [-1] * len(advertiser_ids)
        block = self._blocks.get(round_index)
        cell = block.size if block is not None else 0
        handles: List[int] = []
        counts, owed, moved = self._counts, self._owed, self._moved
        for advertiser_id, price_cents, ctr in zip(
            advertiser_ids, prices_cents, ctrs
        ):
            if advertiser_id not in budgets:
                handles.append(-1)
                continue
            if block is None:
                block = self._blocks[round_index] = _Block()
            cells = block.get(advertiser_id)
            if cells is None:
                cells = block[advertiser_id] = {}
            cells[cell] = (price_cents, ctr)
            if not ctr:
                self._dead_on_display.append((round_index, advertiser_id, cell))
            counts[advertiser_id] = counts.get(advertiser_id, 0) + 1
            owed[advertiser_id] = owed.get(advertiser_id, 0) + price_cents
            moved.add(advertiser_id)
            handles.append(cell)
            cell += 1
        if block is not None:
            block.size = cell
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
        handle)`` and marks cell ``handle`` of its round's block
        settled; if the block is gone (the ad aged past the horizon) the
        charge still settles.  An unbudgeted advertiser's click is
        charged in full and moves no books.  The prices are checked
        whole (int cents ``>= 0``) before any is charged.

        Returns:
            ``(charged_cents, forgiven_cents)`` over the batch.
        """
        clicks = list(clicks)
        if not clicks:
            return 0, 0
        check_cents(list(map(_CLICK_PRICE, clicks)), "a price")
        total_charged = total_forgiven = 0
        budgets, spent, blocks = self._budgets, self._spent, self._blocks
        for advertiser_id, price_cents, display_round, handle in clicks:
            budget = budgets.get(advertiser_id)
            if budget is None:
                charged = price_cents
            else:
                cells = blocks.get(display_round, {}).get(advertiser_id)
                ad = cells.pop(handle, None) if cells else None
                if ad is not None:
                    self._forget(advertiser_id, 1, ad[0])
                remaining = max(0, budget - spent.get(advertiser_id, 0))
                charged = min(price_cents, remaining)
                self._moved.add(advertiser_id)
            if charged:
                spent[advertiser_id] = spent.get(advertiser_id, 0) + charged
            total_charged += charged
            total_forgiven += price_cents - charged
        return total_charged, total_forgiven

    def _forget(self, advertiser_id: int, ads: int, cents: int) -> None:
        """Take ``ads`` outstanding ads worth ``cents`` off the running
        values; an advertiser left with none is no debt carrier."""
        left = self._counts[advertiser_id] - ads
        if left:
            self._counts[advertiser_id] = left
            self._owed[advertiser_id] -= cents
        else:
            del self._counts[advertiser_id], self._owed[advertiser_id]

    def expire_outstanding(self, round_index: int) -> int:
        """Drop the outstanding ads that are dead at ``round_index``: the
        cost of the blocks that are due, however many advertisers idle."""
        return sum(self.expire_outstanding_by_advertiser(round_index).values())

    def expire_outstanding_by_advertiser(
        self, round_index: int
    ) -> Dict[int, int]:
        """:meth:`expire_outstanding`, counted per advertiser that lost
        ads (ascending ids), each noted for :meth:`drain_book_changes`.

        Counts the CTR-0 ads booked since the last expiry, then drops
        every block with ``round + horizon <= round_index`` and reads no
        other.
        """
        blocks = self._blocks
        counts: Dict[int, int] = {}
        for display_round, advertiser_id, cell in self._dead_on_display:
            ad = blocks[display_round][advertiser_id].pop(cell, None)
            if ad is not None:
                self._forget(advertiser_id, 1, ad[0])
                counts[advertiser_id] = counts.get(advertiser_id, 0) + 1
        self._dead_on_display.clear()
        last_dead = round_index - self._horizon
        while blocks and next(iter(blocks)) <= last_dead:
            self._open_round = max(self._open_round, next(iter(blocks)) + 1)
            for advertiser_id, cells in blocks.pop(next(iter(blocks))).items():
                if cells:
                    self._forget(
                        advertiser_id, len(cells),
                        sum(map(_CELL_PRICE, cells.values())),
                    )
                    counts[advertiser_id] = (
                        counts.get(advertiser_id, 0) + len(cells)
                    )
        self._moved.update(counts)
        return dict(sorted(counts.items()))

    @property
    def earliest_dead_round(self) -> float:
        """The oldest block's round plus ``horizon`` (``inf`` with none).

        Before it, every outstanding ad owes at its display CTR, so a
        :meth:`throttle_problem` built for one such round is the problem
        of every other until the advertiser's books move.  An expiry
        leaves it past the round it ran for.
        """
        blocks = self._blocks
        return next(iter(blocks)) + self._horizon if blocks else math.inf

    def throttle_problem(
        self,
        advertiser_id: int,
        bid_cents: int,
        num_auctions: int,
        round_index: int,
    ) -> ThrottleProblem:
        """Build the Section IV throttle inputs for one advertiser.

        Its outstanding cells of the blocks alive at ``round_index``, in
        block order, which is display order; the problem drops the CTR-0
        ones.
        """
        remaining = self.remaining_cents(advertiser_id)
        outstanding: List[Tuple[int, float]] = []
        if advertiser_id in self._counts:
            last_dead = round_index - self._horizon
            for display_round, block in self._blocks.items():
                if display_round > last_dead:
                    cells = block.get(advertiser_id)
                    if cells:
                        outstanding += cells.values()
        return ThrottleProblem(
            bid_cents=min(bid_cents, remaining),
            budget_cents=remaining,
            num_auctions=num_auctions,
            outstanding=outstanding,
        )

    @property
    def debt_carriers(self) -> AbstractSet[int]:
        """Ids of the advertisers holding at least one outstanding ad.

        A live view (do not mutate), kept current by every display,
        settlement and expiry, so a scoring stage finds the advertisers
        whose throttle is not the closed form without visiting a block.
        """
        return self._counts.keys()

    def liability_cents(self, advertiser_id: int) -> int:
        """Sum of the advertiser's outstanding prices, in O(1).

        An upper bound on the ``ω_l`` of the :meth:`throttle_problem`
        built at any round: it still holds ads that are dead but not
        yet expired.
        """
        return self._owed.get(advertiser_id, 0)

    def outstanding_counts(self) -> Dict[int, int]:
        """Outstanding-ad count per debt carrier (for reports)."""
        return dict(self._counts)

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
        return (
            ids,
            [max(0, budget(i) - spent(i, 0)) for i in ids],
            list(map(self._owed.get, ids, [0] * len(ids))),
            list(map(self._counts.__contains__, ids)),
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
