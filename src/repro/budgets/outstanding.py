"""Outstanding ads and the list ledger that books them.

An *outstanding ad* has been displayed but neither clicked nor expired:
the advertiser may still owe its price ``π_j`` with probability
``ctr_j``.  The paper makes no assumption about ``ctr_j`` but notes it is
reasonable to let it reach zero after a limit, which lets old
outstanding ads be discarded.  One model meets that: an ad keeps its
display CTR for ``horizon`` rounds and is dead from then on.

Money is handled in integer *cents* throughout this package: the paper's
exact algorithm is ``O(min(2^l, β))`` "assuming that β is written in the
lowest denomination of currency", and integer arithmetic keeps the DP
exact.
"""

from __future__ import annotations

import math
import numbers
from typing import Dict, List, Sequence, Tuple

from repro.core.money import check_cents
from repro.errors import BudgetError

__all__ = [
    "OutstandingLedger", "check_display_arrays", "check_displays",
    "check_horizon",
]


def check_horizon(horizon: int) -> None:
    """Raise :class:`BudgetError` unless ``horizon`` is an int (not a
    ``bool``) of at least 1."""
    if isinstance(horizon, bool) or not isinstance(horizon, numbers.Integral):
        raise BudgetError(f"horizon must be an int, got {horizon!r}")
    if horizon < 1:
        raise BudgetError(f"horizon must be at least 1, got {horizon}")


def check_displays(prices_cents: Sequence[int], ctrs: Sequence[float]) -> None:
    """Validate a batch of displays whole, before any of it is booked.

    Raises:
        BudgetError: On a price that is not int cents ``>= 0``
            (:func:`repro.core.money.check_cents`), a CTR outside
            ``[0, 1]`` (NaN included), or columns of different lengths.
    """
    if len(prices_cents) != len(ctrs):
        raise BudgetError(
            f"{len(prices_cents)} prices for {len(ctrs)} CTRs: the "
            "columns of a display batch must be parallel"
        )
    check_cents(prices_cents, "a price")
    # min/max pass a NaN that is not first; the sum carries any NaN.
    if ctrs and not (
        0.0 <= min(ctrs) and max(ctrs) <= 1.0 and not math.isnan(sum(ctrs))
    ):
        bad = next(ctr for ctr in ctrs if not 0.0 <= ctr <= 1.0)
        raise BudgetError(f"CTR must be in [0, 1], got {bad}")


def check_display_arrays(prices_cents, ctrs) -> None:
    """:func:`check_displays` on a numpy price column and CTR column, in
    whole-array operations, before they become lists.

    A batch it refuses is handed to :func:`check_displays` as lists, so
    it raises that function's error.
    """
    if (
        len(prices_cents) != len(ctrs)
        or prices_cents.dtype.kind != "i"
        or len(ctrs) and not (
            prices_cents.min() >= 0 and 0.0 <= ctrs.min() and ctrs.max() <= 1.0
        )
    ):
        check_displays(prices_cents.tolist(), ctrs.tolist())


class OutstandingLedger:
    """One advertiser's outstanding ads, walked.

    Ads live in an insertion-ordered table keyed by a monotonically
    increasing *handle*, one ``(price_cents, base_ctr, displayed_round)``
    row each.  It is the reference's books
    (:class:`repro.reference.WalkingBooks`), paper-sized: a
    :meth:`snapshot` and a :meth:`prune` walk every ad.  A running
    :attr:`liability_cents` follows every add and removal.

    An ad displayed at round ``d`` with base CTR ``c`` is *alive* at
    round ``r`` -- it still owes ``π_j`` with ``ctr_j = c`` -- iff
    ``c > 0`` and ``r - d < horizon``; a CTR-0 ad is dead on display.

    Attributes:
        horizon: Rounds an ad stays alive after its display.

    Raises:
        BudgetError: On a horizon that is not an int of at least 1.
    """

    def __init__(self, horizon: int = 1_000_000) -> None:
        check_horizon(horizon)
        self.horizon = horizon
        self._ads: Dict[int, Tuple[int, float, int]] = {}
        self._next_handle = 0
        self.liability_cents = 0
        """Sum of the prices of every ad still in the ledger: an upper
        bound on ``ω_l``, which leaves out ads that are dead but not yet
        pruned."""

    def add(self, price_cents: int, base_ctr: float, round_index: int) -> int:
        """Book an ad the caller validated (:func:`check_displays`).

        Returns:
            The new ad's handle.
        """
        handle = self._next_handle
        self._next_handle = handle + 1
        self._ads[handle] = (price_cents, base_ctr, round_index)
        self.liability_cents += price_cents
        return handle

    def discard(self, handle: int) -> bool:
        """Remove the ad with this handle, if it is still outstanding."""
        row = self._ads.pop(handle, None)
        if row is not None:
            self.liability_cents -= row[0]
        return row is not None

    def prune(self, current_round: int) -> int:
        """Drop the ads that are dead at ``current_round``: a walk over
        every ad.  Returns the number of ads discarded."""
        horizon = self.horizon
        dead = [
            handle
            for handle, (_, base_ctr, shown) in self._ads.items()
            if base_ctr <= 0.0 or current_round - shown >= horizon
        ]
        for handle in dead:
            self.discard(handle)
        return len(dead)

    def snapshot(self, current_round: int) -> List[Tuple[int, float]]:
        """The ``(π_j, ctr_j)`` pairs for the throttling computation, in
        display order; dead ads are omitted (they contribute nothing to
        ``S_l``)."""
        horizon = self.horizon
        return [
            (price, base_ctr)
            for price, base_ctr, shown in self._ads.values()
            if base_ctr > 0.0 and current_round - shown < horizon
        ]

    def __len__(self) -> int:
        return len(self._ads)
