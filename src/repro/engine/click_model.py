"""Simulated user clicks with delayed arrival.

The paper's budget machinery exists because clicks arrive *after* the ad
is displayed.  :class:`DelayedClickModel` samples, for each displayed ad,
whether the user eventually clicks (Bernoulli with the ad's
click-through rate) and when the click arrives (a geometric number of
rounds, capped at a horizon after which the click is abandoned --
which is what lets Section IV drop an outstanding ad one round later).
"""

from __future__ import annotations

import math
import numbers
import random
from heapq import heappop, heappush
from operator import itemgetter
from typing import Dict, List, Sequence, Tuple

from repro.errors import InvalidAuctionError

__all__ = ["DelayedClickModel"]

_ADVERTISER_ID = itemgetter(0)
ClickRow = Tuple[int, int, int, int]


class DelayedClickModel:
    """Samples click outcomes and delays for displayed ads.

    A scheduled click is the row ``(advertiser_id, price_cents,
    display_round, ledger_handle)`` --
    :meth:`repro.engine.budget_manager.BudgetManager.settle_clicks`'
    input.  The handle names the outstanding ad the books recorded for
    the display, so settlement resolves exactly the clicked ad; ``-1``
    when the books recorded none, as for an unbudgeted advertiser's.  Rows wait in one bucket per
    arrival round, so a tick pops what is due and never walks the
    clicks that are not.

    Args:
        mean_delay_rounds: Mean of the geometric delay (0 means clicks
            arrive in the next round).
        horizon_rounds: Clicks that would arrive later than this many
            rounds after display are dropped (never happen).
        rng: Seeded random source.

    Raises:
        InvalidAuctionError: On a mean delay that is negative or not
            finite, or a horizon that is not a positive int.
    """

    def __init__(
        self,
        mean_delay_rounds: float,
        horizon_rounds: int,
        rng: random.Random,
    ) -> None:
        if not (math.isfinite(mean_delay_rounds) and mean_delay_rounds >= 0.0):
            raise InvalidAuctionError(
                f"mean delay must be finite and non-negative, got "
                f"{mean_delay_rounds!r}"
            )
        if (
            isinstance(horizon_rounds, bool)
            or not isinstance(horizon_rounds, numbers.Integral)
        ):
            raise InvalidAuctionError(
                f"click horizon must be an int, got {horizon_rounds!r}"
            )
        if horizon_rounds <= 0:
            raise InvalidAuctionError("click horizon must be positive")
        self.mean_delay_rounds = mean_delay_rounds
        self.horizon_rounds = horizon_rounds
        self._rng = rng
        # Click rows by arrival round, in scheduling order, and a
        # min-heap of the rounds that have a bucket.
        self._pending: Dict[int, List[ClickRow]] = {}
        self._rounds: List[int] = []

    def record_display(
        self,
        advertiser_id: int,
        price_cents: int,
        ctr: float,
        display_round: int,
        ledger_handle: int = -1,
    ) -> bool:
        """Sample one displayed ad: a :meth:`record_displays` of one.

        Returns:
            Whether a click was scheduled.
        """
        return bool(self.record_displays(
            display_round, (advertiser_id,), (price_cents,), (ctr,),
            (ledger_handle,),
        ))

    def record_displays(
        self,
        display_round: int,
        advertiser_ids: Sequence[int],
        prices_cents: Sequence[int],
        ctrs: Sequence[float],
        ledger_handles: Sequence[int],
    ) -> int:
        """Sample a stage's displayed ads, in order.

        The four columns are parallel, one row per ad.  The batch is
        validated before anything is drawn, so a bad row leaves the
        random stream and the pending clicks as they were.  Each ad then
        takes one click draw and, if clicked, the geometric delay's
        draws -- the stream one :meth:`record_display` per row would
        take.

        Returns:
            The number of clicks scheduled.

        Raises:
            InvalidAuctionError: On a CTR outside ``[0, 1]`` or columns
                of different lengths.
        """
        lengths = {len(advertiser_ids), len(prices_cents), len(ledger_handles)}
        if lengths != {len(ctrs)}:
            raise InvalidAuctionError(f"ragged display columns: {lengths}")
        for ctr in ctrs:
            if not 0.0 <= ctr <= 1.0:
                raise InvalidAuctionError(f"CTR must be in [0, 1], got {ctr}")
        return self._record_displays(
            display_round, advertiser_ids, prices_cents, ctrs, ledger_handles
        )

    def _record_displays(
        self,
        display_round: int,
        advertiser_ids: Sequence[int],
        prices_cents: Sequence[int],
        ctrs: Sequence[float],
        ledger_handles: Sequence[int],
    ) -> int:
        """:meth:`record_displays` of a batch its caller has checked
        (parallel columns, every CTR in ``[0, 1]``)."""
        draw = self._rng.random
        horizon = self.horizon_rounds
        # A zero mean delays every click one round and draws no delay.
        geometric = self.mean_delay_rounds != 0.0
        p = 1.0 / (1.0 + self.mean_delay_rounds)
        pending = self._pending
        scheduled = 0
        for advertiser_id, price_cents, ctr, ledger_handle in zip(
            advertiser_ids, prices_cents, ctrs, ledger_handles
        ):
            if draw() >= ctr:
                continue
            delay = 1
            while geometric and draw() > p:
                delay += 1
                if delay > horizon:
                    break
            if delay > horizon:
                continue
            arrival_round = display_round + delay
            bucket = pending.get(arrival_round)
            if bucket is None:
                bucket = pending[arrival_round] = []
                heappush(self._rounds, arrival_round)
            bucket.append(
                (advertiser_id, price_cents, display_round, ledger_handle)
            )
            scheduled += 1
        return scheduled

    def arrivals(self, round_index: float) -> List[ClickRow]:
        """Pop and return the clicks arriving at ``round_index`` or before.

        Ordered by ``(arrival_round, advertiser_id)``; clicks that tie
        keep the order they were scheduled in.
        """
        due: List[ClickRow] = []
        rounds = self._rounds
        while rounds and rounds[0] <= round_index:
            bucket = self._pending.pop(heappop(rounds))
            bucket.sort(key=_ADVERTISER_ID)
            due += bucket
        return due

    def flush(self) -> List[ClickRow]:
        """Pop all remaining scheduled clicks (end of simulation)."""
        return self.arrivals(math.inf)

    @property
    def pending_count(self) -> int:
        """Clicks scheduled but not yet delivered."""
        return sum(map(len, self._pending.values()))
