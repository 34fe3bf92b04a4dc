"""A round of one phrase takes one path in every mode.

A served tick, and ``run_round([p])`` alike, has nothing to share: stage
3 ranks it by one scan of stage 2's arrays whatever the engine's mode,
and the fragment executor (with its exec cache) and the Section III
kernel run only for rounds of two or more phrases.  These tests hold that
split to :class:`repro.reference.ReferenceEngine` on one budgeted engine
that interleaves ticks, one-phrase rounds, rounds of several phrases and
``set_bids``:

- in ``shared`` with the exec cache, which must stay sound when ticks
  bypass it -- a row a tick re-bid or booked is one its next round's
  score diff finds moved;
- in ``shared-sort`` with per-phrase CTR factors, where a tick ranks by
  ``b̂ * c_i^q`` and not by the phrase-independent ``c_i``;
- in ``unshared``.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.core.advertiser import Advertiser
from repro.engine.pipeline import SharedAuctionEngine
from repro.reference import ReferenceEngine
from repro.workloads.generator import MarketConfig, generate_market

SLOT_FACTORS = (0.3, 0.2, 0.1)
CONFIGS = {
    "shared+exec_cache": dict(mode="shared", exec_cache=True),
    "shared-sort": dict(mode="shared-sort"),
    "unshared": dict(mode="unshared"),
}
DIFFERENTIAL_SEEDS = range(50)
STEPS = 24


def _market(seed):
    """Nine phrases sharing fragments, budgets that bind within a few
    rounds, and a per-phrase CTR factor on about a third of the bids."""
    market = generate_market(
        MarketConfig(
            num_categories=3,
            phrases_per_category=3,
            specialists_per_category=5,
            generalists=3,
            generalist_categories=2,
            median_budget_cents=1_500,
            seed=seed,
        )
    )
    rng = random.Random(f"overrides-{seed}")
    advertisers = [
        Advertiser(
            a.advertiser_id,
            bid=a.bid,
            ctr_factor=a.ctr_factor,
            daily_budget=a.daily_budget,
            phrases=a.phrases,
            phrase_ctr_factors={
                phrase: round(rng.uniform(0.2, 1.9), 3)
                for phrase in sorted(a.phrases)
                if rng.random() < 0.35
            },
        )
        for a in market.advertisers
    ]
    return advertisers, market.search_rates


def _same_report(ours, theirs):
    for name in (
        "round_index", "occurring_phrases", "allocations", "revenue_cents",
        "forgiven_cents", "displays", "clicks", "expired_ads",
    ):
        assert getattr(ours, name) == getattr(theirs, name), name
    if len(ours.occurring_phrases) == 1:
        # One scan of the phrase's members, as the reference does it.
        assert (ours.merges, ours.scans) == (0, theirs.scans)


def _interleaved(seed, config):
    """Engine and reference in step over ticks, one-phrase rounds, rounds
    of several phrases and bid moves.

    Returns:
        Rows the exec cache found moved at a round of several phrases
        whose advertiser was re-bid before a tick since the previous such
        round (0 without the cache).
    """
    advertisers, rates = _market(seed)
    engine = SharedAuctionEngine(
        advertisers, SLOT_FACTORS, rates, seed=seed, **config
    )
    config = {k: v for k, v in config.items() if k != "exec_cache"}
    reference = ReferenceEngine(
        advertisers, SLOT_FACTORS, rates, seed=seed, **config
    )
    executor = engine._columnar_exec if engine.exec_cache else None
    store = engine._store
    phrases = sorted(engine.phrase_advertisers)
    rng = random.Random(f"interleave-{seed}")
    rebid_at_ticks = set()
    caught = 0
    for step in range(STEPS):
        kind = rng.choice(("tick", "tick", "one", "round"))
        occurring = (
            sorted(rng.sample(phrases, rng.randint(2, len(phrases))))
            if kind == "round"
            else [rng.choice(phrases)]
        )
        if rng.random() < 0.6:
            bidders = sorted(
                {a for p in occurring for a in engine.phrase_advertisers[p]}
            )
            ids = sorted(rng.sample(bidders, math.ceil(0.3 * len(bidders))))
            cents = [rng.randint(0, 400) for _ in ids]
            engine.set_bids(ids, cents)
            reference.set_bids(ids, cents)
            if kind != "round":
                rebid_at_ticks.update(ids)
        if kind == "tick":
            ours = engine.serve_query(occurring[0])
            theirs = reference.serve_query(occurring[0])
        else:
            seen = executor._seen.copy() if executor is not None else None
            ours = engine.run_round(occurring)
            theirs = reference.run_round(occurring)
            if seen is not None and kind == "round":
                dirty = executor.dirty_rows_last_round()
                moved = store.ids[dirty[seen[dirty]]].tolist()
                caught += len(rebid_at_ticks.intersection(moved))
                rebid_at_ticks.clear()
        _same_report(ours, theirs)
    assert engine.settle_remaining_clicks() == reference.settle_remaining_clicks()
    assert (
        engine.budget_manager.spent_snapshot()
        == reference.budget_manager.spent_snapshot()
    )
    return caught


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("seed", DIFFERENTIAL_SEEDS)
def test_interleaved_ticks_and_rounds_match_the_reference(seed, config):
    _interleaved(seed, dict(CONFIGS[config]))


def test_the_exec_cache_sees_what_ticks_moved():
    # The differential above is only as strong as its interleavings: a
    # round of several phrases must meet cached rows re-bid at ticks the
    # cache never saw, and find them by its own score diff.
    caught = sum(
        _interleaved(seed, dict(CONFIGS["shared+exec_cache"]))
        for seed in range(10)
    )
    assert caught > 10


def test_the_markets_carry_per_phrase_factors_that_reorder_a_phrase():
    # A shared-sort tick ranked by c_i instead of c_i^q must lose the
    # differential: on these markets the two orders differ.
    reordered = 0
    for seed in range(10):
        advertisers, _ = _market(seed)
        phrases = sorted({p for a in advertisers for p in a.phrases})
        for phrase in phrases:
            bidders = [a for a in advertisers if phrase in a.phrases]

            def order(factor):
                return sorted(
                    bidders,
                    key=lambda a: (-a.bid * factor(a), a.advertiser_id),
                )[: len(SLOT_FACTORS) + 1]

            reordered += order(lambda a: a.ctr_factor) != order(
                lambda a: a.ctr_factor_for(phrase)
            )
    assert reordered > 10
