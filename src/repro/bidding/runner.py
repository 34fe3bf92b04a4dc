"""Running bidding strategies against the shared auction engine.

:class:`BiddingWar` wires strategies to advertisers on a single phrase
and replays rounds through :class:`repro.engine.SharedAuctionEngine`
(shared plan, exec cache): each round the engine resolves the auction
on the *current* bids -- bids change, the plan does not, exactly the
paper's setting -- then every strategy observes the outcome and posts
its next bid through :meth:`SharedAuctionEngine.set_bids`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from repro.bidding.strategies import BiddingStrategy, RoundObservation
from repro.core.advertiser import Advertiser
from repro.core.money import dollars_to_cents
from repro.engine.pipeline import SharedAuctionEngine
from repro.errors import InvalidAuctionError

__all__ = ["BidTrace", "BiddingWar"]

PHRASE = "war"


@dataclass
class BidTrace:
    """Per-advertiser time series collected by a bidding war.

    Attributes:
        bids: Bid the engine ran each round (whole cents, in dollars).
        slots: Slot won each round (``None`` when not shown).
        spend: Cumulative settled spend in dollars after each round.
    """

    bids: List[float] = field(default_factory=list)
    slots: List[Optional[int]] = field(default_factory=list)
    spend: List[float] = field(default_factory=list)


class BiddingWar:
    """Strategies competing on one phrase over many rounds.

    Args:
        strategies: ``{advertiser_id: strategy}``.
        initial_bids: Starting bid per advertiser, in dollars.
        ctr_factors: ``c_i`` per advertiser.
        slot_factors: The page's slot factors (defines ``k``).
        rounds: Number of rounds the war will run (strategies use it for
            pacing).

    The auction is the engine's: generalized second pricing and a click
    drawn per shown ad.  No advertiser has a budget in the engine --
    pacing is a strategy here -- and a round's clicks settle before the
    strategies re-bid.  Every bid, the opening ones too, goes through
    :func:`repro.core.money.dollars_to_cents` and ``set_bids``, so a
    negative, NaN, infinite or too large one raises
    :class:`InvalidAuctionError`.
    """

    def __init__(
        self,
        strategies: Mapping[int, BiddingStrategy],
        initial_bids: Mapping[int, float],
        ctr_factors: Mapping[int, float],
        slot_factors: Sequence[float],
        rounds: int,
    ) -> None:
        if set(strategies) != set(initial_bids) or set(strategies) != set(
            ctr_factors
        ):
            raise InvalidAuctionError(
                "strategies, initial bids, and CTR factors must cover the "
                "same advertisers"
            )
        if rounds <= 0:
            raise InvalidAuctionError("a bidding war needs at least one round")
        self.strategies = dict(strategies)
        self.rounds = rounds
        self.traces = {advertiser_id: BidTrace() for advertiser_id in strategies}
        # Built at bid 0: the opening bids are posted like every later one.
        self.engine = SharedAuctionEngine(
            [
                Advertiser(i, 0.0, ctr_factors[i], phrases=frozenset({PHRASE}))
                for i in sorted(strategies)
            ],
            slot_factors,
            {PHRASE: 1.0},
            exec_cache=True,
            mean_click_delay_rounds=0.0,
        )
        self._post(initial_bids)

    def _post(self, bids: Mapping[int, float]) -> None:
        """Hand every advertiser's next bid to the engine; ``self.bids``
        keeps the bids it holds (whole cents)."""
        ids = sorted(bids)
        cents = [dollars_to_cents(bids[i]) for i in ids]
        self.engine.set_bids(ids, cents)
        self.bids = {i: bid / 100.0 for i, bid in zip(ids, cents)}

    def run(self) -> Dict[int, BidTrace]:
        """Run all rounds; returns the per-advertiser traces."""
        books = self.engine.budget_manager
        for round_index in range(self.rounds):
            shown = self.engine.run_round([PHRASE]).allocations[PHRASE]
            self.engine.settle_remaining_clicks()
            ranking = tuple(advertiser_id for _, advertiser_id, _ in shown)
            slot_of = {advertiser_id: slot for slot, advertiser_id, _ in shown}
            # Strategies observe and re-bid (the "rapidly changing
            # variables" of Section II-C).
            new_bids: Dict[int, float] = {}
            for advertiser_id, strategy in self.strategies.items():
                trace = self.traces[advertiser_id]
                trace.bids.append(self.bids[advertiser_id])
                trace.slots.append(slot_of.get(advertiser_id))
                trace.spend.append(books.spent_cents(advertiser_id) / 100.0)
                new_bids[advertiser_id] = strategy.next_bid(
                    RoundObservation(
                        round_index=round_index,
                        my_slot=trace.slots[-1],
                        ranking=ranking,
                        my_bid=trace.bids[-1],
                        my_spend=trace.spend[-1],
                        rounds_remaining=self.rounds - round_index - 1,
                    )
                )
            self._post(new_bids)
        return self.traces
