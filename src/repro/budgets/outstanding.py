"""Outstanding ads and click-probability decay.

An *outstanding ad* has been displayed but neither clicked nor expired:
the advertiser may still owe its price ``π_j`` with probability
``ctr_j``.  The paper makes no assumption about ``ctr_j`` but notes it is
reasonable to model it as decreasing with the time since display and
reaching zero after a limit, which lets old outstanding ads be discarded.
Three decay models are provided; all satisfy that contract.

Money is handled in integer *cents* throughout this package: the paper's
exact algorithm is ``O(min(2^l, β))`` "assuming that β is written in the
lowest denomination of currency", and integer arithmetic keeps the DP
exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Protocol, Sequence, Tuple

from repro.errors import BudgetError

__all__ = [
    "ClickDecayModel",
    "NoDecay",
    "GeometricDecay",
    "ExponentialDecay",
    "OutstandingAd",
    "OutstandingLedger",
    "check_displays",
    "dead_elapsed",
]


class ClickDecayModel(Protocol):
    """Maps a base click probability and elapsed time to current ``ctr_j``."""

    def probability(self, base_ctr: float, elapsed_rounds: int) -> float:
        """Current probability the outstanding ad still gets clicked."""
        ...

    @property
    def horizon(self) -> int:
        """Rounds after which the probability is exactly zero.

        A horizon lets the ledger discard ads that have received no
        click in a long time, as the paper suggests.
        """
        ...


@dataclass(frozen=True)
class NoDecay:
    """Click probability stays at the base CTR until the horizon."""

    horizon: int = 1_000_000

    def probability(self, base_ctr: float, elapsed_rounds: int) -> float:
        if elapsed_rounds >= self.horizon:
            return 0.0
        return base_ctr


@dataclass(frozen=True)
class GeometricDecay:
    """Each elapsed round multiplies the click probability by ``ratio``."""

    ratio: float = 0.5
    horizon: int = 32

    def __post_init__(self) -> None:
        if not 0.0 <= self.ratio <= 1.0:
            raise BudgetError(f"decay ratio must be in [0, 1], got {self.ratio}")
        if self.horizon <= 0:
            raise BudgetError("decay horizon must be positive")

    def probability(self, base_ctr: float, elapsed_rounds: int) -> float:
        if elapsed_rounds >= self.horizon:
            return 0.0
        return base_ctr * self.ratio**elapsed_rounds


@dataclass(frozen=True)
class ExponentialDecay:
    """Continuous-rate decay ``exp(-rate * elapsed)`` with a hard horizon."""

    rate: float = 0.3
    horizon: int = 32

    def __post_init__(self) -> None:
        if self.rate < 0.0:
            raise BudgetError(f"decay rate must be non-negative, got {self.rate}")
        if self.horizon <= 0:
            raise BudgetError("decay horizon must be positive")

    def probability(self, base_ctr: float, elapsed_rounds: int) -> float:
        if elapsed_rounds >= self.horizon:
            return 0.0
        return base_ctr * math.exp(-self.rate * elapsed_rounds)


@dataclass(frozen=True)
class OutstandingAd:
    """One displayed-but-unresolved ad.

    Attributes:
        price_cents: ``π_j`` -- the price (in cents) the advertiser will
            pay if the ad is clicked.
        base_ctr: Click probability at display time.
        displayed_round: Round index when the ad was shown.
        handle: Ledger-assigned identity (``compare=False``: two ads
            with the same price/CTR/round are still *equal as values*;
            the handle exists so settlement can name one of them
            unambiguously).  ``-1`` for ads constructed outside a
            ledger.
    """

    price_cents: int
    base_ctr: float
    displayed_round: int = 0
    handle: int = field(default=-1, compare=False)

    def __post_init__(self) -> None:
        if self.price_cents < 0:
            raise BudgetError(f"price must be non-negative, got {self.price_cents}")
        if not 0.0 <= self.base_ctr <= 1.0:
            raise BudgetError(f"CTR must be in [0, 1], got {self.base_ctr}")

    def current_ctr(self, decay: ClickDecayModel, current_round: int) -> float:
        """``ctr_j`` given the time elapsed since display."""
        elapsed = max(0, current_round - self.displayed_round)
        return decay.probability(self.base_ctr, elapsed)

    def dead_round(self, decay: ClickDecayModel) -> float:
        """First round ``r`` with ``current_ctr(decay, r) <= 0.0``.

        Known at display time (see :func:`dead_elapsed`), so an expiry
        queue can be keyed on this value once.  Normally
        ``displayed_round + decay.horizon``; ``-inf`` for an ad that is
        dead on display.
        """
        return self.displayed_round + dead_elapsed(decay, self.base_ctr)


def dead_elapsed(decay: ClickDecayModel, base_ctr: float) -> float:
    """Rounds after display at which an ad of ``base_ctr`` is first dead.

    The first ``elapsed`` with ``decay.probability(base_ctr, elapsed)
    <= 0.0``.  A decay model's probability never rises with elapsed
    time, so the ad is dead at every later round too, and the value
    does not depend on when the ad was shown: it is ``decay.horizon``
    normally, earlier when the probability reaches zero before the
    horizon (``ratio == 0``, float underflow; found by bisection).  An
    ad that is dead on display (``base_ctr == 0``) is dead at *every*
    round -- :meth:`OutstandingAd.current_ctr` clamps elapsed time at
    zero -- and returns ``-inf``.
    """
    horizon = decay.horizon
    if decay.probability(base_ctr, horizon - 1) > 0.0:
        elapsed = horizon
    else:
        low, elapsed = 0, horizon - 1
        while low < elapsed:
            middle = (low + elapsed) // 2
            if decay.probability(base_ctr, middle) <= 0.0:
                elapsed = middle
            else:
                low = middle + 1
    if elapsed <= 0:
        return -math.inf
    return elapsed


def check_displays(prices_cents: Sequence[int], ctrs: Sequence[float]) -> None:
    """Validate a batch of displays the way :class:`OutstandingAd` does.

    Raises:
        BudgetError: On a negative price, a CTR outside ``[0, 1]``
            (NaN included), or columns of different lengths.
    """
    if len(prices_cents) != len(ctrs):
        raise BudgetError(
            f"{len(prices_cents)} prices for {len(ctrs)} CTRs: the "
            "columns of a display batch must be parallel"
        )
    for price in prices_cents:
        if price < 0:
            raise BudgetError(f"price must be non-negative, got {price}")
    for ctr in ctrs:
        if not 0.0 <= ctr <= 1.0:
            raise BudgetError(f"CTR must be in [0, 1], got {ctr}")


class OutstandingLedger:
    """Per-advertiser bookkeeping of outstanding ads.

    Ads live in an insertion-ordered table keyed by a monotonically
    increasing *handle*, one ``(price_cents, base_ctr, displayed_round)``
    row each; :class:`OutstandingAd` is the value type handed out at
    the single-ad boundary (:attr:`ads`, :meth:`record_display`,
    :meth:`resolve_handle`), built on demand.  :meth:`record_display`
    returns the ad carrying its handle, and :meth:`resolve_handle`
    removes exactly that ad in O(1) -- the identity settlement needs
    when an advertiser holds two value-equal ads (same price, CTR, and
    display round) of which only one was clicked.  :meth:`resolve`
    remains for callers holding an ad *value*: it prefers the carried
    handle and falls back to a first-equal scan for hand-constructed
    ads.

    The budget manager books a stage's worth of ads through the lean
    pair instead: :meth:`add` appends an ad the caller has validated
    (:func:`check_displays`, once per batch), :meth:`discard_handles`
    drops a run of consecutive handles, skipping those already gone --
    neither builds an :class:`OutstandingAd`.

    The ledger also keeps a running :attr:`liability_cents` -- the sum
    of the live ads' prices, adjusted by every add and removal -- so the
    Section IV quick test can be asked in O(1) without a walk.

    Attributes:
        decay: The click-decay model applied to all ads in the ledger.
    """

    def __init__(self, decay: ClickDecayModel | None = None) -> None:
        self.decay: ClickDecayModel = decay if decay is not None else NoDecay()
        self._ads: Dict[int, Tuple[int, float, int]] = {}
        self._next_handle = 0
        self._liability_cents = 0

    @property
    def liability_cents(self) -> int:
        """Sum of the prices of every ad still in the ledger.

        An upper bound on ``ω_l`` (:meth:`max_liability_cents`), which
        leaves out ads whose click probability already decayed to zero
        but that no expiry has removed yet: ``liability_cents <= x``
        implies ``ω_l <= x``, never the reverse.
        """
        return self._liability_cents

    @property
    def ads(self) -> List[OutstandingAd]:
        """The live outstanding ads, oldest first (a fresh list)."""
        return [
            OutstandingAd(*row, handle=handle)
            for handle, row in self._ads.items()
        ]

    def record_display(
        self, price_cents: int, base_ctr: float, round_index: int
    ) -> OutstandingAd:
        """Add a newly displayed ad and return it (carrying its handle)."""
        ad = OutstandingAd(
            price_cents, base_ctr, round_index, handle=self._next_handle
        )
        self.add(price_cents, base_ctr, round_index)
        return ad

    def add(self, price_cents: int, base_ctr: float, round_index: int) -> int:
        """:meth:`record_display` for a caller that validated the ad.

        Builds no :class:`OutstandingAd` and checks nothing: the budget
        manager books a round's displays through here after one
        :func:`check_displays` over the whole batch.

        Returns:
            The new ad's handle.
        """
        handle = self._next_handle
        self._next_handle = handle + 1
        self._ads[handle] = (price_cents, base_ctr, round_index)
        self._liability_cents += price_cents
        return handle

    def has_handle(self, handle: int) -> bool:
        """Whether an ad with this identity is still outstanding."""
        return handle in self._ads

    def resolve_handle(self, handle: int) -> OutstandingAd:
        """Remove and return the ad with this identity, in O(1).

        Raises:
            BudgetError: If no outstanding ad has this handle (already
                settled, expired, or never recorded here).
        """
        row = self._ads.get(handle)
        if row is None:
            raise BudgetError(
                f"no outstanding ad with handle {handle} in this ledger"
            )
        self.discard_handles(handle, 1)
        return OutstandingAd(*row, handle=handle)

    def discard_handles(self, first: int, count: int = 1) -> int:
        """Remove the ads with handles ``first .. first + count - 1``.

        Handles that are no longer outstanding (settled or expired
        earlier) are skipped.

        Returns:
            The number of ads removed.
        """
        ads = self._ads
        removed = 0
        for handle in range(first, first + count):
            row = ads.pop(handle, None)
            if row is not None:
                self._liability_cents -= row[0]
                removed += 1
        return removed

    def resolve(self, ad: OutstandingAd) -> None:
        """Remove an ad that was clicked (debt settled) or cancelled.

        An ad returned by :meth:`record_display` resolves by its handle;
        a hand-constructed ad (``handle == -1`` or foreign) falls back
        to removing the first value-equal entry -- ambiguous when
        duplicates exist, which is exactly why the engine threads
        handles instead.
        """
        if self.discard_handles(ad.handle):
            return
        value = (ad.price_cents, ad.base_ctr, ad.displayed_round)
        for handle, row in self._ads.items():
            if row == value:
                self.discard_handles(handle)
                return
        raise BudgetError("ad is not outstanding in this ledger")

    def prune(self, current_round: int) -> int:
        """Drop ads whose click probability has decayed to zero.

        A walk over every ad.  The engine's budget manager expires from
        a queue keyed on :meth:`OutstandingAd.dead_round` instead; this
        is the oracle that queue is tested against, and the way to
        expire a ledger used on its own.

        Returns the number of ads discarded.
        """
        probability = self.decay.probability
        dead = [
            handle
            for handle, (_, base_ctr, shown) in self._ads.items()
            if probability(base_ctr, max(0, current_round - shown)) <= 0.0
        ]
        for handle in dead:
            self.discard_handles(handle)
        return len(dead)

    def snapshot(self, current_round: int) -> List[Tuple[int, float]]:
        """The ``(π_j, ctr_j)`` pairs for the throttling computation.

        ``ctr_j`` is :meth:`OutstandingAd.current_ctr`; ads with zero
        current probability are omitted (they contribute nothing to
        ``S_l``).
        """
        probability = self.decay.probability
        return [
            (price, ctr)
            for price, base_ctr, shown in self._ads.values()
            if (ctr := probability(base_ctr, max(0, current_round - shown)))
            > 0.0
        ]

    def max_liability_cents(self, current_round: int) -> int:
        """``ω_l`` -- the worst-case total still owed."""
        return sum(price for price, _ in self.snapshot(current_round))

    def expected_liability_cents(self, current_round: int) -> float:
        """``μ_l = E[S_l]`` -- the expected total still owed."""
        return sum(price * ctr for price, ctr in self.snapshot(current_round))

    def __len__(self) -> int:
        return len(self._ads)
