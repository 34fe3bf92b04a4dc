"""The Section IV gaming attack and its mitigation.

If the system ignores budget uncertainty -- letting an advertiser bid his
full remaining budget in every auction and simply forgiving clicks that
arrive after the budget is exhausted -- then an advertiser interested in
a popular keyword can win ``m`` simultaneous auctions while only able to
pay for ``m' < m`` clicks.  The extra clicks are free, and the slots they
occupied could have gone to competitors able to pay: lost revenue for the
search provider.

:func:`simulate_gaming` runs a controlled head-to-head: the same stream
of rounds is resolved under a *naive* policy (ignore outstanding ads)
and under the paper's *throttled* policy (rank by ``b̂``), with clicks
arriving with a configurable delay.  The attacker is a nearly exhausted
advertiser on a high-volume phrase; honest competitors have ample
budgets.  The report quantifies forgiven click value and provider
revenue under each policy.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.budgets.throttle import ThrottleProblem, exact_throttled_bid
from repro.core.advertiser import Advertiser
from repro.errors import BudgetError

__all__ = [
    "AtScaleGamingMarket",
    "GamingAdvertiser",
    "GamingReport",
    "forgiven_fraction",
    "gaming_market_at_scale",
    "simulate_gaming",
]


@dataclass
class GamingAdvertiser:
    """One advertiser in the gaming simulation.

    Attributes:
        advertiser_id: Identifier.
        bid_cents: Per-click bid.
        budget_cents: Daily budget.
        ctr: Probability a shown ad is eventually clicked.
    """

    advertiser_id: int
    bid_cents: int
    budget_cents: int
    ctr: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.ctr <= 1.0:
            raise BudgetError(f"CTR must be in [0, 1], got {self.ctr}")


@dataclass
class GamingReport:
    """Outcome of one policy run.

    Attributes:
        policy: ``"naive"`` or ``"throttled"``.
        revenue_cents: Total paid to the provider.
        forgiven_cents: Value of clicks delivered but not charged because
            the clicker's budget was exhausted.
        wins: Auctions won, per advertiser.
        paid_clicks: Clicks fully charged, per advertiser.
        free_clicks: Clicks wholly or partly forgiven, per advertiser.
    """

    policy: str
    revenue_cents: int = 0
    forgiven_cents: int = 0
    wins: Dict[int, int] = field(default_factory=dict)
    paid_clicks: Dict[int, int] = field(default_factory=dict)
    free_clicks: Dict[int, int] = field(default_factory=dict)


@dataclass
class _Shown:
    """One displayed ad: a potential future click and a potential debt."""

    advertiser_id: int
    price_cents: int
    shown_round: int
    will_click: bool


def simulate_gaming(
    advertisers: Sequence[GamingAdvertiser],
    rounds: int,
    auctions_per_round: int,
    click_delay_rounds: int,
    policy: str,
    seed: int,
) -> GamingReport:
    """Run one policy over a stream of single-slot auctions.

    Every auction sells one slot (first-price -- the pricing rule is
    orthogonal to the attack); all advertisers participate in every
    auction of the round.  A shown ad is clicked with the advertiser's
    CTR, and the click arrives exactly ``click_delay_rounds`` later; only
    then is payment attempted, and any shortfall beyond the remaining
    budget is forgiven.  Ads older than the delay that were not clicked
    stop being outstanding.

    Args:
        advertisers: The population (attacker plus honest competitors).
        rounds: Number of rounds to simulate.
        auctions_per_round: ``m`` -- simultaneous auctions per round.
        click_delay_rounds: Delay between display and click arrival.
        policy: ``"naive"`` ranks by raw bid while any *settled* budget
            remains; ``"throttled"`` ranks by the throttled bid ``b̂``
            accounting for outstanding ads.
        seed: RNG seed; use the same seed across policies to compare on
            identical click fortunes.
    """
    if policy not in ("naive", "throttled"):
        raise BudgetError(f"unknown policy {policy!r}")
    if click_delay_rounds < 0:
        raise BudgetError("click delay must be non-negative")
    rng = random.Random(seed)
    report = GamingReport(policy=policy)
    remaining: Dict[int, int] = {
        a.advertiser_id: a.budget_cents for a in advertisers
    }
    shown: List[_Shown] = []
    by_id = {a.advertiser_id: a for a in advertisers}
    for a in advertisers:
        report.wins[a.advertiser_id] = 0
        report.paid_clicks[a.advertiser_id] = 0
        report.free_clicks[a.advertiser_id] = 0

    def settle(ad: _Shown) -> None:
        """Deliver the click for a shown ad (if any) and charge it."""
        if not ad.will_click:
            return
        charge = min(ad.price_cents, remaining[ad.advertiser_id])
        remaining[ad.advertiser_id] -= charge
        report.revenue_cents += charge
        shortfall = ad.price_cents - charge
        if shortfall > 0:
            report.forgiven_cents += shortfall
            report.free_clicks[ad.advertiser_id] += 1
        else:
            report.paid_clicks[ad.advertiser_id] += 1

    for round_index in range(rounds):
        # Resolve ads whose click window has closed.
        matured = [
            ad
            for ad in shown
            if round_index - ad.shown_round >= click_delay_rounds
        ]
        shown = [
            ad
            for ad in shown
            if round_index - ad.shown_round < click_delay_rounds
        ]
        for ad in matured:
            settle(ad)

        # Rank advertisers for this round under the chosen policy.
        effective: Dict[int, float] = {}
        for a in advertisers:
            capped_bid = min(a.bid_cents, remaining[a.advertiser_id])
            if capped_bid <= 0:
                effective[a.advertiser_id] = 0.0
                continue
            if policy == "naive":
                effective[a.advertiser_id] = float(capped_bid)
            else:
                outstanding = [
                    (ad.price_cents, by_id[ad.advertiser_id].ctr)
                    for ad in shown
                    if ad.advertiser_id == a.advertiser_id
                ]
                problem = ThrottleProblem(
                    bid_cents=capped_bid,
                    budget_cents=remaining[a.advertiser_id],
                    num_auctions=auctions_per_round,
                    outstanding=outstanding,
                )
                effective[a.advertiser_id] = exact_throttled_bid(problem)

        for _ in range(auctions_per_round):
            contenders = sorted(
                (
                    (value, advertiser_id)
                    for advertiser_id, value in effective.items()
                    if value > 0.0
                ),
                key=lambda pair: (-pair[0], pair[1]),
            )
            if not contenders:
                continue
            value, winner_id = contenders[0]
            price = max(1, int(round(value)))
            report.wins[winner_id] += 1
            shown.append(
                _Shown(
                    winner_id,
                    price,
                    round_index,
                    rng.random() < by_id[winner_id].ctr,
                )
            )

    for ad in shown:
        settle(ad)
    return report


@dataclass(frozen=True)
class AtScaleGamingMarket:
    """A gaming population sized for the full engine.

    The mini-simulation above isolates the attack mechanics with one
    attacker; this market reproduces it *at scale* -- thousands of
    near-exhausted advertisers crowding a handful of always-occurring
    phrases -- as real :class:`repro.core.advertiser.Advertiser` objects
    the :class:`repro.engine.SharedAuctionEngine` consumes directly.

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
