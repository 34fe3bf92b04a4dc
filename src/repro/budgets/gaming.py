"""The Section IV gaming attack, run on the engine.

If the system ignores budget uncertainty -- letting an advertiser bid his
full remaining budget in every auction and simply forgiving clicks that
arrive after the budget is exhausted -- then an advertiser interested in
a popular keyword can win ``m`` simultaneous auctions while only able to
pay for ``m' < m`` clicks.  The extra clicks are free, and the slots they
occupied could have gone to competitors able to pay: lost revenue for the
search provider.

:func:`gaming_market_at_scale` builds the attack's market, from one
attacker (E5) to thousands (E19), for
:class:`repro.engine.SharedAuctionEngine` to run under the *naive*
policy (``throttle=False``: rank by bid, ignore outstanding ads) or the
paper's *throttled* one (rank by ``b̂``).  The engine's report carries
the revenue and the forgiven click value, and :func:`attacker_wins`
counts the slots the attackers took.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import AbstractSet, Dict, List, Tuple

from repro.core.advertiser import Advertiser
from repro.engine.pipeline import EngineReport
from repro.errors import BudgetError

__all__ = [
    "AtScaleGamingMarket",
    "attacker_wins",
    "forgiven_fraction",
    "gaming_market_at_scale",
]


@dataclass(frozen=True)
class AtScaleGamingMarket:
    """A gaming population sized for the full engine.

    From one attacker against a few rivals (E5) to thousands of
    near-exhausted advertisers crowding a handful of always-occurring
    phrases (E19), as real :class:`repro.core.advertiser.Advertiser`
    objects the :class:`repro.engine.SharedAuctionEngine` consumes
    directly.

    Attributes:
        advertisers: The full population, attackers then honest.
        search_rates: ``{phrase: 1.0}`` -- every phrase occurs every
            round, so auction multiplicities stay constant and the only
            thing moving throttled bids is the books.
        attacker_ids: Ids of the near-exhausted advertisers.
        honest_ids: Ids of the deep-budget competitors.
    """

    advertisers: Tuple[Advertiser, ...]
    search_rates: Dict[str, float]
    attacker_ids: frozenset
    honest_ids: frozenset


def gaming_market_at_scale(
    num_attackers: int = 2000,
    num_honest: int = 200,
    num_phrases: int = 8,
    phrases_per_advertiser: int = 2,
    seed: int = 0,
) -> AtScaleGamingMarket:
    """Build the Section IV attack population at engine scale.

    Every attacker is the paper's nearly exhausted advertiser: a budget
    only ~1.5-2x its bid, a moderate CTR, and two popular phrases -- so
    under a naive policy it keeps winning slots whose eventual clicks it
    cannot pay for.  Honest competitors bid comparably but carry budgets
    that absorb every click.  All phrases have search rate 1.0: the
    auction multiplicity ``m_i`` never moves, which both matches the
    attack setting (high-volume keywords) and makes the workload a clean
    probe of book-driven throttle work.

    Args:
        num_attackers: Near-exhausted advertisers (the paper's attack is
            interesting from one; the benchmark runs thousands).
        num_honest: Deep-budget competitors.
        num_phrases: Distinct always-occurring phrases.  Raising this
            (hundreds of phrases over thousands of advertisers) is the
            size knob the columnar benchmarks turn: per-phrase
            member counts stay ``~(attackers + honest) *
            phrases_per_advertiser / num_phrases``.
        phrases_per_advertiser: Phrases each advertiser bids on (2 in
            the classic attack shape; must not exceed ``num_phrases``).
            The default reproduces the original draw sequence
            byte-for-byte.
        seed: Draw seed; the population is a pure function of the
            arguments.
    """
    if num_attackers <= 0 or num_honest <= 0 or num_phrases <= 0:
        raise BudgetError("at-scale market sizes must be positive")
    if not 0 < phrases_per_advertiser <= num_phrases:
        raise BudgetError(
            f"phrases_per_advertiser must be in [1, {num_phrases}], got "
            f"{phrases_per_advertiser}"
        )
    rng = random.Random(seed)
    phrases = [f"hot{i}" for i in range(num_phrases)]
    advertisers: List[Advertiser] = []
    # Attackers outrank the honest field on score (high bid, high CTR)
    # but carry budgets worth only ~1.5-2 clicks: a naive policy keeps
    # showing them while clicks are in flight, and the late arrivals are
    # forgiven.  Honest competitors score below every fresh attacker and
    # absorb any click they take.
    for i in range(num_attackers):
        bid = round(rng.uniform(1.00, 1.30), 2)
        advertisers.append(
            Advertiser(
                advertiser_id=i,
                bid=bid,
                daily_budget=round(bid * rng.uniform(1.5, 2.0), 2),
                ctr_factor=round(rng.uniform(0.45, 0.65), 3),
                phrases=frozenset(rng.sample(phrases, phrases_per_advertiser)),
            )
        )
    for j in range(num_honest):
        advertisers.append(
            Advertiser(
                advertiser_id=num_attackers + j,
                bid=round(rng.uniform(0.50, 0.90), 2),
                daily_budget=round(rng.uniform(40.0, 80.0), 2),
                ctr_factor=round(rng.uniform(0.25, 0.45), 3),
                phrases=frozenset(rng.sample(phrases, phrases_per_advertiser)),
            )
        )
    return AtScaleGamingMarket(
        advertisers=tuple(advertisers),
        search_rates={phrase: 1.0 for phrase in phrases},
        attacker_ids=frozenset(range(num_attackers)),
        honest_ids=frozenset(
            range(num_attackers, num_attackers + num_honest)
        ),
    )


def attacker_wins(report: EngineReport, attacker_ids: AbstractSet[int]) -> int:
    """Slots the attackers were displayed in, over the whole run."""
    return sum(
        advertiser_id in attacker_ids
        for round_report in report.history
        for displayed in round_report.allocations.values()
        for _slot, advertiser_id, _price in displayed
    )


def forgiven_fraction(revenue_cents: int, forgiven_cents: int) -> float:
    """The provider's revenue loss: forgiven value over delivered value.

    Zero when every click was paid in full; a naive policy on the
    at-scale market forgives a visible fraction, and throttling drives
    it toward zero -- the single number the E19 table tracks.
    """
    delivered = revenue_cents + forgiven_cents
    if delivered <= 0:
        return 0.0
    return forgiven_cents / delivered
