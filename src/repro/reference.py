"""The reference auction: the paper's rounds, one plain scan per phrase.

:class:`ReferenceEngine` is the oracle the engine
(:class:`repro.engine.SharedAuctionEngine`) is checked against.  It runs
the same rounds as the paper describes them and nothing more:

- Section I: a round is a set of occurring bid phrases, each one an
  auction of ``k`` slots with separable click-through rates
  ``ctr_ij = c_i * d_j``.
- Section IV: an advertiser in ``m`` of the round's auctions bids its
  throttled bid ``b̂ = E[min(b, max(0, β - S_l) / m)]`` against the ads
  it has outstanding, computed exactly.  An outstanding ad owes its
  price with its display CTR for ``click_horizon_rounds + 1`` rounds
  and nothing after.
- Sections II and III: winner determination is the top-(k+1) of
  ``b̂ * c`` per phrase (``c = c_i^q`` under ``"shared-sort"``, which
  honours per-phrase CTR factors; ``c = c_i`` otherwise).  Shared plans
  and shared sorts are exact ways to compute that top-(k+1), so one scan
  per phrase is their auction.
- Generalized second pricing: slot ``j``'s click costs
  ``min(b̂, next / c)``, where ``next`` is the score one place down.

It shares with the engine only what both must share for their outcomes
to be comparable draw for draw: the click simulator
(:class:`repro.engine.click_model.DelayedClickModel`) fed by the same
``random.Random(seed)`` as phrase sampling, the exact Section IV solver
(:func:`repro.budgets.throttle.exact_throttled_bid`), the single-pass
top-k (:func:`repro.core.topk.top_k_scan`) and the report types.  Its
budget books are its own (:class:`WalkingBooks`: a list ledger per
advertiser, walked every round), and it has no store, plan, sort
network, cache or collector.  Its arithmetic is the engine's float
operation for float operation, so the two agree byte for byte
(``tests/engine/test_layout_differential.py``).
"""

from __future__ import annotations

import math
import random
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.budgets.outstanding import (
    OutstandingLedger, check_displays, check_horizon,
)
from repro.budgets.throttle import ThrottleProblem, exact_throttled_bid
from repro.core.advertiser import Advertiser
from repro.core.ctr import SeparableCTRModel
from repro.core.money import (
    UNBUDGETED_CENTS, check_bid_cents, check_cents, checked_bid_update,
    dollars_to_cents,
)
from repro.core.topk import ScoredAdvertiser, TopKList, top_k_scan
from repro.engine.click_model import DelayedClickModel
from repro.engine.pipeline import EngineReport, RoundReport
from repro.engine.rounds import check_count
from repro.errors import BudgetError, InvalidAuctionError
from repro.instrument import NULL

__all__ = ["ReferenceEngine", "WalkingBooks"]


class WalkingBooks:
    """The reference's budget books: one
    :class:`~repro.budgets.outstanding.OutstandingLedger` per budgeted
    advertiser, and a :meth:`expire` that prunes every ledger.

    A handle is the ad's handle in its advertiser's ledger.  An
    advertiser absent from ``budgets_cents`` keeps no ledger: its
    displays take handle ``-1``, its clicks are charged in full, and
    its remaining budget is ``UNBUDGETED_CENTS``.  Budgets and prices
    must be int cents ``>= 0``, checked whole before anything is booked.
    """

    def __init__(self, budgets_cents: Mapping[int, int], horizon: int) -> None:
        check_cents(budgets_cents.values(), "a budget")
        check_horizon(horizon)
        self.budgets = dict(budgets_cents)
        self.horizon = horizon
        self.ledgers: Dict[int, OutstandingLedger] = {}
        self.spent: Dict[int, int] = {}

    def remaining_cents(self, advertiser_id: int) -> int:
        budget = self.budgets.get(advertiser_id)
        if budget is None:
            return UNBUDGETED_CENTS
        return max(0, budget - self.spent.get(advertiser_id, 0))

    def record_displays(self, ids, prices, ctrs, round_index) -> List[int]:
        check_displays(prices, ctrs)
        if len(ids) != len(ctrs):
            raise BudgetError(f"{len(ids)} advertisers for {len(ctrs)} ads")
        return self._record_displays(ids, prices, ctrs, round_index)

    def _record_displays(self, ids, prices, ctrs, round_index) -> List[int]:
        return [
            self.ledgers.setdefault(
                advertiser_id, OutstandingLedger(self.horizon)
            ).add(price, ctr, round_index)
            if advertiser_id in self.budgets else -1
            for advertiser_id, price, ctr in zip(ids, prices, ctrs)
        ]

    def settle_clicks(self, clicks) -> Tuple[int, int]:
        """Charge ``(advertiser_id, price, display_round, handle)`` clicks
        in order; returns ``(charged, forgiven)`` totals."""
        clicks = list(clicks)
        check_cents([click[1] for click in clicks], "a price")
        total_charged = 0
        for advertiser_id, price, _, handle in clicks:
            charged = price
            if advertiser_id in self.budgets:
                charged = min(price, self.remaining_cents(advertiser_id))
                if advertiser_id in self.ledgers:
                    self.ledgers[advertiser_id].discard(handle)
            self.spent[advertiser_id] = self.spent.get(advertiser_id, 0) + charged
            total_charged += charged
        return total_charged, sum(click[1] for click in clicks) - total_charged

    def expire(self, round_index: int) -> Dict[int, int]:
        """Prune every ledger; the ads each lost, in ascending id order."""
        pruned = {
            advertiser_id: ledger.prune(round_index)
            for advertiser_id, ledger in sorted(self.ledgers.items())
        }
        return {advertiser_id: n for advertiser_id, n in pruned.items() if n}

    def outstanding_counts(self) -> Dict[int, int]:
        return {i: len(ledger) for i, ledger in self.ledgers.items() if ledger}

    def spent_snapshot(self) -> Dict[int, int]:
        return {i: spent for i, spent in sorted(self.spent.items()) if spent}


class ReferenceEngine:
    """Round-based sponsored-search auctions, straight from the paper.

    Args:
        advertisers: The advertiser population; each carries its bid,
            CTR factor(s), daily budget and bid phrases.
        slot_factors: The slot factors ``d_j`` (non-increasing); their
            count is the number of slots ``k``.
        search_rates: ``{phrase: sr_q}``, each in ``[0, 1]``.  A phrase
            bid on but absent here occurs every round (rate 1.0).
        mode: ``"shared"``, ``"unshared"`` or ``"shared-sort"``: the
            engine mode this reference stands for.  Only
            ``"shared-sort"`` changes the auction (``c = c_i^q``).
        throttle: Bid the Section IV throttled bid; otherwise
            ``min(b, β)``.
        mean_click_delay_rounds: Mean click arrival delay.
        click_horizon_rounds: Rounds after which an unclicked ad expires.
        seed: Seed of the one random stream behind phrase sampling and
            clicks.
    """

    collector = NULL
    """Always the null collector: the reference counts nothing."""

    def __init__(
        self,
        advertisers: Sequence[Advertiser],
        slot_factors: Sequence[float],
        search_rates: Mapping[str, float],
        mode: str = "shared",
        throttle: bool = True,
        mean_click_delay_rounds: float = 2.0,
        click_horizon_rounds: int = 16,
        seed: int = 0,
    ) -> None:
        if mode not in ("shared", "unshared", "shared-sort"):
            raise InvalidAuctionError(f"unknown engine mode {mode!r}")
        self.advertisers = tuple(advertisers)
        self.mode = mode
        self.throttle = throttle
        self._by_id = {a.advertiser_id: a for a in self.advertisers}
        if len(self._by_id) != len(self.advertisers):
            raise InvalidAuctionError("duplicate advertiser ids")
        self._bid_cents = {
            a.advertiser_id: dollars_to_cents(a.bid) for a in self.advertisers
        }
        # Validates the factors: in [0, 1], non-increasing.
        self.slot_factors = SeparableCTRModel(
            {a.advertiser_id: a.ctr_factor for a in self.advertisers},
            slot_factors,
        ).slot_factors
        self.k = len(self.slot_factors)
        bidders: Dict[str, List[int]] = {}
        for advertiser in self.advertisers:
            for phrase in advertiser.phrases:
                bidders.setdefault(phrase, []).append(advertiser.advertiser_id)
        self.phrase_advertisers: Dict[str, Tuple[int, ...]] = {
            phrase: tuple(sorted(ids)) for phrase, ids in sorted(bidders.items())
        }
        check_bid_cents(
            max(self._bid_cents.values(), default=0),
            len(self.phrase_advertisers),
        )
        self.search_rates = {
            phrase: float(search_rates.get(phrase, 1.0))
            for phrase in self.phrase_advertisers
        }
        bad = {p: r for p, r in self.search_rates.items() if not 0.0 <= r <= 1.0}
        if bad:
            raise InvalidAuctionError(f"search rates must be in [0, 1]: {bad!r}")
        budgets = {
            a.advertiser_id: dollars_to_cents(a.daily_budget)
            for a in self.advertisers
            if a.daily_budget != math.inf
        }
        self._rng = random.Random(seed)
        self.click_model = DelayedClickModel(
            mean_click_delay_rounds, click_horizon_rounds, self._rng
        )
        # An ad whose click can no longer arrive is dropped one round
        # after the click horizon.
        self.budget_manager = WalkingBooks(budgets, click_horizon_rounds + 1)
        self._round_index = 0

    # ------------------------------------------------------------------
    # the public surface: batch rounds and served queries
    # ------------------------------------------------------------------
    def sample_occurring_phrases(self) -> List[str]:
        """Draw this round's phrases: one Bernoulli(``sr_q``) per phrase,
        in phrase order."""
        return [
            phrase
            for phrase in self.phrase_advertisers
            if self._rng.random() < self.search_rates[phrase]
        ]

    def run_round(self, occurring: Optional[Iterable[str]] = None) -> RoundReport:
        """Resolve one round over ``occurring`` (sampled when omitted)."""
        phrases = (
            sorted(occurring)
            if occurring is not None
            else self.sample_occurring_phrases()
        )
        unknown = [p for p in phrases if p not in self.phrase_advertisers]
        if unknown:
            raise InvalidAuctionError(f"no advertisers bid on {unknown!r}")
        if len(set(phrases)) != len(phrases):
            raise InvalidAuctionError(f"a phrase repeats in {phrases!r}")
        return self._resolve(tuple(phrases))

    def serve_query(self, phrase: str) -> RoundReport:
        """Resolve one served query: a round of the one phrase."""
        if phrase not in self.phrase_advertisers:
            raise InvalidAuctionError(f"no advertisers bid on {[phrase]!r}")
        return self._resolve((phrase,))

    def set_bids(self, ids: Sequence[int], bid_cents: Sequence[int]) -> None:
        """Move bids (integer cents) before the next round or query,
        checked like the engine's before any write."""
        ids, bid_cents = checked_bid_update(
            ids, bid_cents, self._bid_cents, len(self.phrase_advertisers)
        )
        self._bid_cents.update(zip(ids, bid_cents))

    def settle_remaining_clicks(self) -> Tuple[int, int, int]:
        """Deliver every pending click now; returns ``(revenue_cents,
        forgiven_cents, clicks)``."""
        clicks = self.click_model.flush()
        return (*self.budget_manager.settle_clicks(clicks), len(clicks))

    def run(self, rounds: int) -> EngineReport:
        """Run ``rounds`` sampled rounds, then settle every pending click."""
        check_count("rounds", rounds)
        report = EngineReport()
        for _ in range(rounds):
            report.absorb(self.run_round())
        revenue, forgiven, clicks = self.settle_remaining_clicks()
        report.revenue_cents += revenue
        report.forgiven_cents += forgiven
        report.clicks += clicks
        return report

    # ------------------------------------------------------------------
    # one round
    # ------------------------------------------------------------------
    def _resolve(self, phrases: Tuple[str, ...]) -> RoundReport:
        """Deliver, score, rank, price, book -- in that order."""
        # The index is taken only once the request is known to be good,
        # so a refused one shifts no later click or expiry.
        round_index = self._round_index
        self._round_index += 1
        report = RoundReport(round_index, phrases)

        # Deliver: the clicks due now are charged, and ads that can no
        # longer be clicked leave the books.
        clicks = self.click_model.arrivals(round_index)
        report.revenue_cents, report.forgiven_cents = (
            self.budget_manager.settle_clicks(clicks)
        )
        report.clicks = len(clicks)
        report.expired_ads = sum(self.budget_manager.expire(round_index).values())
        if not phrases:
            return report

        # Score, rank and price each phrase.
        bids = self._throttled_bids(phrases, round_index, report)
        displays: List[Tuple[int, int, int, float]] = []
        for phrase in phrases:
            ranking = self._rank(phrase, bids, report)
            ads = self._price(phrase, ranking, bids)
            report.allocations[phrase] = tuple(ad[:3] for ad in ads)
            displays.extend(ads)

        # Book: every displayed ad becomes outstanding debt and may be
        # clicked later, in (phrase, slot) order, checked once for both.
        _, ids, prices, ctrs = zip(*displays) if displays else ((),) * 4
        check_displays(prices, ctrs)
        handles = self.budget_manager._record_displays(ids, prices, ctrs, round_index)
        self.click_model._record_displays(round_index, ids, prices, ctrs, handles)
        report.displays = len(ids)
        return report

    def _throttled_bids(
        self, phrases: Sequence[str], round_index: int, report: RoundReport
    ) -> Dict[int, float]:
        """Section IV: ``b̂`` (cents) of every advertiser bidding this round.

        ``m`` is the number of the round's auctions the advertiser is in.
        Under ``throttle`` the bid is the exact expectation over its
        outstanding ads; otherwise it is ``min(b, β)``.
        """
        multiplicity: Dict[int, int] = {}
        for phrase in phrases:
            for advertiser_id in self.phrase_advertisers[phrase]:
                multiplicity[advertiser_id] = multiplicity.get(advertiser_id, 0) + 1
        bids: Dict[int, float] = {}
        for advertiser_id, m in multiplicity.items():
            remaining = self.budget_manager.remaining_cents(advertiser_id)
            bid_cents = min(self._bid_cents[advertiser_id], remaining)
            ledger = self.budget_manager.ledgers.get(advertiser_id)
            if self.throttle:
                report.debt_carriers_scored += bool(ledger)
                bids[advertiser_id] = exact_throttled_bid(ThrottleProblem(
                    bid_cents, remaining, m,
                    ledger.snapshot(round_index) if ledger else (),
                ))
            else:
                bids[advertiser_id] = float(bid_cents)
        return bids

    def _ctr_factor(self, advertiser_id: int, phrase: str) -> float:
        """``c``: ``c_i^q`` under ``"shared-sort"``, ``c_i`` otherwise."""
        advertiser = self._by_id[advertiser_id]
        if self.mode == "shared-sort":
            return advertiser.ctr_factor_for(phrase)
        return advertiser.ctr_factor

    def _rank(
        self, phrase: str, bids: Mapping[int, float], report: RoundReport
    ) -> TopKList:
        """Sections II-III: the top-(k+1) of ``b̂ * c`` by one scan; the
        ``k+1``-th entry is the last slot's runner-up, which generalized
        second pricing reads."""
        bidders = self.phrase_advertisers[phrase]
        report.scans += len(bidders)
        return top_k_scan(
            self.k + 1,
            (
                ScoredAdvertiser(
                    bids[i] / 100.0 * self._ctr_factor(i, phrase), i
                )
                for i in bidders
            ),
        )

    def _price(
        self, phrase: str, ranking: TopKList, bids: Mapping[int, float]
    ) -> List[Tuple[int, int, int, float]]:
        """Generalized second pricing of one phrase's slots.

        Slot ``j`` goes to the ``j``-th entry; its click costs
        ``min(b̂, next / c)`` rounded to a cent (half to even), ``next``
        the score one entry down (0 past the last).  An entry that would
        pay nothing -- a zero score, a zero CTR factor, a price that
        rounds to 0 -- is not shown, and its slot stays empty.

        Returns:
            ``(slot, advertiser_id, price_cents, ctr)`` per shown ad,
            ``ctr = min(1, c * d_j)``.
        """
        entries = ranking.entries
        shown: List[Tuple[int, int, int, float]] = []
        for slot, entry in enumerate(entries[: self.k]):
            if entry.score <= 0.0:
                continue
            c = self._ctr_factor(entry.advertiser_id, phrase)
            if c <= 0.0:
                continue
            next_score = entries[slot + 1].score if slot + 1 < len(entries) else 0.0
            price = int(round(min(bids[entry.advertiser_id], next_score / c * 100.0)))
            if price <= 0:
                continue
            ctr = min(1.0, c * self.slot_factors[slot])
            shown.append((slot, entry.advertiser_id, price, ctr))
        return shown

