"""Advertisers and bid phrases.

An :class:`Advertiser` owns a current bid (the maximum it will pay for a
click), a daily budget, an advertiser-specific click-through-rate factor,
and a set of bid phrases it is interested in.  A :class:`BidPhrase` is the
normalized keyword string an auction is keyed on, together with its
*search rate* -- the probability that the phrase occurs in a given round
(Section II-B of the paper).

Both types are intentionally plain: the sharing machinery in
:mod:`repro.plans` and :mod:`repro.sharedsort` treats advertisers as opaque
variables carrying a score, and only the auction engine reads budgets.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import FrozenSet, Iterable, Mapping

from repro.errors import InvalidAuctionError

__all__ = ["Advertiser", "BidPhrase"]

_INF = float("inf")


@dataclass(frozen=True, order=True)
class BidPhrase:
    """A bid phrase that search queries are matched against.

    Attributes:
        text: The normalized phrase, e.g. ``"hiking boots"``.  Phrases are
            compared and hashed by this text.
        search_rate: Probability that this phrase occurs in a round
            (``sr_q`` in the paper).  Must lie in ``[0, 1]``.
    """

    text: str
    search_rate: float = 1.0

    def __post_init__(self) -> None:
        if not self.text:
            raise InvalidAuctionError("bid phrase text must be non-empty")
        if not 0.0 <= self.search_rate <= 1.0:
            raise InvalidAuctionError(
                f"search rate must be in [0, 1], got {self.search_rate!r}"
            )

    def with_search_rate(self, search_rate: float) -> "BidPhrase":
        """Return a copy of this phrase with a different search rate."""
        return replace(self, search_rate=search_rate)


@dataclass(frozen=True)
class Advertiser:
    """An advertiser participating in sponsored-search auctions.

    Attributes:
        advertiser_id: Unique identifier; ties in scores are broken by it
            so that winner determination is deterministic.
        bid: Current bid ``b_i`` -- the maximum payment for one click.
        ctr_factor: Advertiser-specific click-through-rate factor ``c_i``
            under the separability assumption (Section II-A).
        daily_budget: Maximum total spend per day; ``float('inf')`` means
            unbudgeted.
        phrases: The set of bid-phrase texts this advertiser bids on.
        phrase_ctr_factors: Optional per-phrase override of ``ctr_factor``
            (``c_i^q`` in Section III).  Phrases absent from this mapping
            fall back to ``ctr_factor``.
    """

    advertiser_id: int
    bid: float
    ctr_factor: float = 1.0
    daily_budget: float = float("inf")
    phrases: FrozenSet[str] = field(default_factory=frozenset)
    phrase_ctr_factors: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.advertiser_id < 0:
            raise InvalidAuctionError("advertiser_id must be non-negative")
        # Chained comparisons: NaN and +inf fail ``0 <= x < inf``.
        if not 0.0 <= self.bid < _INF:
            raise InvalidAuctionError(
                f"bid must be finite and non-negative, got {self.bid!r}"
            )
        if not 0.0 <= self.ctr_factor < _INF:
            raise InvalidAuctionError(
                f"ctr_factor must be finite and non-negative, "
                f"got {self.ctr_factor!r}"
            )
        # +inf means unbudgeted; NaN compares false with everything.
        if not self.daily_budget >= 0.0:
            raise InvalidAuctionError(
                f"daily_budget must be non-negative, got {self.daily_budget!r}"
            )
        bad = [
            c for c in self.phrase_ctr_factors.values() if not 0.0 <= c < _INF
        ]
        if bad:
            raise InvalidAuctionError(
                f"phrase ctr factors must be finite and non-negative, "
                f"got {bad!r}"
            )

    def __hash__(self) -> int:
        return hash(self.advertiser_id)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Advertiser):
            return NotImplemented
        return self.advertiser_id == other.advertiser_id

    def ctr_factor_for(self, phrase: str) -> float:
        """Return ``c_i^q`` -- the CTR factor for a specific phrase.

        Falls back to the phrase-independent :attr:`ctr_factor` when no
        per-phrase override is present, matching Section II's assumption
        that the advertiser factor is shared across phrases.
        """
        return self.phrase_ctr_factors.get(phrase, self.ctr_factor)

    def score(self, phrase: str | None = None) -> float:
        """Return the ranking score ``b_i * c_i`` (or ``b_i * c_i^q``).

        Winner determination under separability ranks advertisers by this
        product (Section II-A).
        """
        factor = self.ctr_factor if phrase is None else self.ctr_factor_for(phrase)
        return self.bid * factor

    def interested_in(self, phrase: str) -> bool:
        """Return whether this advertiser bids on ``phrase``."""
        return phrase in self.phrases

    def with_bid(self, bid: float) -> "Advertiser":
        """Return a copy of this advertiser with a new bid.

        Bids change rapidly between rounds (Section II-C); plans are built
        over advertiser *identities*, so re-binding a bid must not disturb
        identity-based hashing.
        """
        return replace(self, bid=bid)

    def with_phrases(self, phrases: Iterable[str]) -> "Advertiser":
        """Return a copy of this advertiser interested in ``phrases``."""
        return replace(self, phrases=frozenset(phrases))
