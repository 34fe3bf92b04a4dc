"""Simulated user clicks with delayed arrival.

The paper's budget machinery exists because clicks arrive *after* the ad
is displayed.  :class:`DelayedClickModel` samples, for each displayed ad,
whether the user eventually clicks (Bernoulli with the ad's
click-through rate) and when the click arrives (a geometric number of
rounds, capped at a horizon after which the click is abandoned --
matching the decay-to-zero assumption of Section IV).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from heapq import heappop, heappush
from operator import attrgetter
from typing import Dict, List

from repro.errors import InvalidAuctionError

__all__ = ["ClickEvent", "DelayedClickModel"]

_ADVERTISER_ID = attrgetter("advertiser_id")


@dataclass(frozen=True)
class ClickEvent:
    """A click scheduled to arrive in a future round.

    Attributes:
        advertiser_id: Whose ad was clicked.
        phrase: The auction's bid phrase.
        price_cents: Price the pricing rule set for this click.
        display_round: Round the ad was shown.
        arrival_round: Round the click arrives (payment is attempted).
        ledger_handle: Identity of the outstanding-ledger entry recorded
            for this display
            (:meth:`repro.engine.budget_manager.BudgetManager.record_display`),
            so settlement resolves exactly the clicked ad rather than
            the first ad with a matching price and round.  ``-1`` when
            the display was not recorded against a ledger, as an
            unbudgeted advertiser's never is.
    """

    advertiser_id: int
    phrase: str
    price_cents: int
    display_round: int
    arrival_round: int
    ledger_handle: int = -1


class DelayedClickModel:
    """Samples click outcomes and delays for displayed ads.

    Scheduled clicks wait in one bucket per arrival round, so a tick
    pops what is due and never walks the clicks that are not.

    Args:
        mean_delay_rounds: Mean of the geometric delay (0 means clicks
            arrive in the next round).
        horizon_rounds: Clicks that would arrive later than this many
            rounds after display are dropped (never happen).
        rng: Seeded random source.
    """

    def __init__(
        self,
        mean_delay_rounds: float,
        horizon_rounds: int,
        rng: random.Random,
    ) -> None:
        if mean_delay_rounds < 0.0:
            raise InvalidAuctionError("mean delay must be non-negative")
        if horizon_rounds <= 0:
            raise InvalidAuctionError("click horizon must be positive")
        self.mean_delay_rounds = mean_delay_rounds
        self.horizon_rounds = horizon_rounds
        self._rng = rng
        # Clicks by arrival round, in scheduling order, and a min-heap
        # of the rounds that have a bucket.
        self._pending: Dict[int, List[ClickEvent]] = {}
        self._rounds: List[int] = []

    def record_display(
        self,
        advertiser_id: int,
        phrase: str,
        price_cents: int,
        ctr: float,
        display_round: int,
        ledger_handle: int = -1,
    ) -> bool:
        """Sample one displayed ad; returns whether a click was scheduled.

        ``ledger_handle`` rides along on the scheduled
        :class:`ClickEvent` so the eventual settlement can name the
        exact outstanding-ledger entry this display created.
        """
        if not 0.0 <= ctr <= 1.0:
            raise InvalidAuctionError(f"CTR must be in [0, 1], got {ctr}")
        if self._rng.random() >= ctr:
            return False
        delay = self._sample_delay()
        if delay > self.horizon_rounds:
            return False
        arrival_round = display_round + delay
        bucket = self._pending.get(arrival_round)
        if bucket is None:
            bucket = self._pending[arrival_round] = []
            heappush(self._rounds, arrival_round)
        bucket.append(
            ClickEvent(
                advertiser_id,
                phrase,
                price_cents,
                display_round,
                arrival_round,
                ledger_handle,
            )
        )
        return True

    def _sample_delay(self) -> int:
        if self.mean_delay_rounds == 0.0:
            return 1
        p = 1.0 / (1.0 + self.mean_delay_rounds)
        delay = 1
        while self._rng.random() > p:
            delay += 1
            if delay > self.horizon_rounds:
                break
        return delay

    def arrivals(self, round_index: float) -> List[ClickEvent]:
        """Pop and return the clicks arriving at ``round_index`` or before.

        Ordered by ``(arrival_round, advertiser_id)``; clicks that tie
        keep the order they were scheduled in.
        """
        due: List[ClickEvent] = []
        rounds = self._rounds
        while rounds and rounds[0] <= round_index:
            bucket = self._pending.pop(heappop(rounds))
            bucket.sort(key=_ADVERTISER_ID)
            due += bucket
        return due

    def flush(self) -> List[ClickEvent]:
        """Pop all remaining scheduled clicks (end of simulation)."""
        return self.arrivals(math.inf)

    @property
    def pending_count(self) -> int:
        """Clicks scheduled but not yet delivered."""
        return sum(map(len, self._pending.values()))
