"""Bidding strategies: how advertisers adjust bids between rounds.

Each strategy sees a :class:`RoundObservation` -- what the advertiser
could observe about the previous round (its own slot, the public ranking
of scores, its spend so far) -- and returns the next bid.  Strategies
never see competitors' private bids directly, only the realized ranking,
matching what a search-engine optimizer could scrape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Protocol, Sequence, Tuple

from repro.errors import InvalidAuctionError

__all__ = [
    "RoundObservation",
    "BiddingStrategy",
    "StaticBid",
    "TargetSlot",
    "OutbidCompetitor",
    "BudgetPacing",
]


@dataclass(frozen=True)
class RoundObservation:
    """What one advertiser observes after a round.

    Attributes:
        round_index: The round just resolved.
        my_slot: Slot the advertiser won (0-indexed), or ``None``.
        ranking: The public ranking for the phrase: the ids of the ads
            the page showed, in slot order.
        my_bid: The bid the advertiser used this round.
        my_spend: Cumulative settled spend.
        rounds_remaining: Rounds left in the day, for pacing.
    """

    round_index: int
    my_slot: Optional[int]
    ranking: Tuple[int, ...]
    my_bid: float
    my_spend: float
    rounds_remaining: int


class BiddingStrategy(Protocol):
    """Decides the next round's bid from the latest observation."""

    def next_bid(self, observation: RoundObservation) -> float:
        """Return the bid for the next round (non-negative)."""
        ...


@dataclass
class StaticBid:
    """Always bid the same amount -- the control strategy."""

    bid: float

    def next_bid(self, observation: RoundObservation) -> float:
        return self.bid


@dataclass
class TargetSlot:
    """Stay in a given slot: raise when below it, shave when above it.

    Mirrors the "staying in a given slot" goal.  Additive-increase /
    multiplicative-decrease keeps the dynamics stable.

    Attributes:
        slot: Desired slot (0-indexed; 0 is the top slot).
        step: Additive raise applied when ranked below the target.
        shave: Multiplicative factor (< 1) applied when ranked above the
            target (winning too high a slot wastes money).
        max_bid: Hard cap.
    """

    slot: int
    step: float = 0.05
    shave: float = 0.97
    max_bid: float = 50.0

    def __post_init__(self) -> None:
        if self.slot < 0:
            raise InvalidAuctionError("target slot must be non-negative")
        if not 0.0 < self.shave <= 1.0:
            raise InvalidAuctionError("shave factor must be in (0, 1]")

    def next_bid(self, observation: RoundObservation) -> float:
        bid = observation.my_bid
        if observation.my_slot is None or observation.my_slot > self.slot:
            bid += self.step
        elif observation.my_slot < self.slot:
            bid *= self.shave
        return min(self.max_bid, max(0.0, bid))


@dataclass
class OutbidCompetitor:
    """Stay ranked above a specific competitor.

    The "staying a certain number of slots above a competitor" goal with
    distance 1: if the competitor ranks at or above us, raise; otherwise
    drift down to save money.
    """

    competitor_id: int
    step: float = 0.05
    shave: float = 0.99
    max_bid: float = 50.0

    def next_bid(self, observation: RoundObservation) -> float:
        bid = observation.my_bid
        ranking = observation.ranking
        try:
            competitor_rank = ranking.index(self.competitor_id)
        except ValueError:
            competitor_rank = None
        my_rank = (
            observation.my_slot
            if observation.my_slot is not None
            else len(ranking)
        )
        if competitor_rank is not None and competitor_rank <= my_rank:
            bid += self.step
        else:
            bid *= self.shave
        return min(self.max_bid, max(0.0, bid))


@dataclass
class BudgetPacing:
    """Spend the daily budget smoothly across the remaining rounds.

    The "dividing one's budget across keywords / the day" goal: bid
    proportionally to the per-round budget slice still available, capped
    by a valuation.  Under-spending raises the bid, over-spending cools
    it down.
    """

    daily_budget: float
    valuation: float
    aggressiveness: float = 1.0

    def __post_init__(self) -> None:
        if self.daily_budget < 0 or self.valuation < 0:
            raise InvalidAuctionError("budget and valuation must be >= 0")

    def next_bid(self, observation: RoundObservation) -> float:
        remaining_budget = max(0.0, self.daily_budget - observation.my_spend)
        remaining_rounds = max(1, observation.rounds_remaining)
        slice_per_round = remaining_budget / remaining_rounds
        return min(self.valuation, self.aggressiveness * slice_per_round)
