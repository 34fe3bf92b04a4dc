"""Bids move between rounds; the plan does not.

The paper's bidding programs re-bid every round while the plan built
offline stays as it is (Section II-C).  Bids move through one door,
``set_bids``, on :class:`SharedAuctionEngine` and on
:class:`repro.reference.ReferenceEngine` alike.  These tests hold the
engine to the reference under moving bids:

- hand cases over a plan built once, with the object
  :class:`PlanExecutor` and a shared-sort plan's live network beside
  the engines, all answering like a fresh scan of the current bids;
- the moving-bids differential: 50 seeds x three modes x 1%, 10% and
  100% of the round's advertisers re-bidding before each batch round
  and each served tick, with budgets on, so moved bids meet debt
  carriers and kept Section IV problems;
- refusal parity: a bad update raises on both engines and leaves each
  run byte-identical to an untouched twin.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.core.advertiser import Advertiser
from repro.core.topk import top_k_scan
from repro.engine.pipeline import SharedAuctionEngine
from repro.errors import InvalidAuctionError
from repro.plans.executor import PlanExecutor
from repro.plans.greedy_planner import greedy_shared_plan
from repro.plans.instance import SharedAggregationInstance
from repro.reference import ReferenceEngine
from repro.sharedsort.plan import build_shared_sort_plan
from repro.workloads.generator import MarketConfig, generate_market

SLOT_FACTORS = (0.3, 0.2, 0.1, 0.05)

MODES = {
    "shared+exec_cache": dict(mode="shared", exec_cache=True),
    "shared-sort": dict(mode="shared-sort"),
    "unshared": dict(mode="unshared"),
}
FRACTIONS = (0.01, 0.1, 1.0)


def _pair(advertisers, search_rates, seed=0, k=3, **config):
    """The engine and the reference over one market."""
    slots = SLOT_FACTORS[:k]
    engine = SharedAuctionEngine(
        advertisers, slots, search_rates, seed=seed, **config
    )
    config.pop("exec_cache", None)
    reference = ReferenceEngine(
        advertisers, slots, search_rates, seed=seed, **config
    )
    return engine, reference


def _same_outcome(ours, theirs):
    for name in (
        "round_index", "occurring_phrases", "allocations", "revenue_cents",
        "forgiven_cents", "displays", "clicks", "expired_ads",
    ):
        assert getattr(ours, name) == getattr(theirs, name), name


def _drain(stream):
    items = []
    while (item := stream.item(len(items))) is not None:
        items.append(item)
    return items


# ----------------------------------------------------------------------
# hand cases: one plan, bids moved through set_bids
# ----------------------------------------------------------------------
class BidsHarness:
    """One market, its plans built once, every engine moved in step."""

    ENGINES = {
        "shared": dict(mode="shared"),
        **MODES,
    }

    def __init__(self, interests, bids, ctrs, k=2):
        self.k = k
        self.interests = {p: frozenset(ids) for p, ids in interests.items()}
        self.instance = SharedAggregationInstance.from_sets(self.interests)
        self.plan = greedy_shared_plan(self.instance)
        self.executor = PlanExecutor(self.plan, k)
        self.sort_plan = build_shared_sort_plan(
            {p: sorted(ids) for p, ids in sorted(self.interests.items())}
        )
        self.ctrs = ctrs
        self.bid_cents = dict(bids)
        advertisers = [
            Advertiser(
                advertiser_id, cents / 100.0, ctr_factor=ctrs[advertiser_id],
                phrases=frozenset(
                    p for p, ids in self.interests.items() if advertiser_id in ids
                ),
            )
            for advertiser_id, cents in sorted(bids.items())
        ]
        slots = SLOT_FACTORS[:k]
        self.engines = {
            name: SharedAuctionEngine(advertisers, slots, {}, **config)
            for name, config in self.ENGINES.items()
        }
        self.reference = ReferenceEngine(advertisers, slots, {})
        self.names = sorted(self.interests)

    @property
    def cached(self):
        return self.engines["shared+exec_cache"]._columnar_exec

    def move(self, advertiser_id, bid_cents):
        for engine in (*self.engines.values(), self.reference):
            engine.set_bids([advertiser_id], [bid_cents])
        self.bid_cents[advertiser_id] = bid_cents

    def run_round_and_check(self, names=None):
        """One round through every engine and plan; all agree with the
        reference, and the plans with a fresh scan.  Returns the
        reference's report."""
        names = self.names if names is None else names
        scores = {
            a: cents / 100.0 * self.ctrs[a] for a, cents in self.bid_cents.items()
        }
        result = self.executor.run_round(scores, occurring=names)
        for name in names:
            expected = top_k_scan(
                self.k, [(scores[a], a) for a in sorted(self.interests[name])]
            )
            assert result.answers[name] == expected, name
        live = self.sort_plan.instantiate(self.bid_cents)
        for phrase, ids in sorted(self.interests.items()):
            streamed = _drain(live.stream_for_phrase(phrase))
            assert [a for _, a in streamed] == sorted(
                ids, key=lambda a: (-self.bid_cents[a], a)
            ), phrase
        expected = self.reference.run_round(names)
        for name, engine in self.engines.items():
            assert engine.run_round(names).allocations == expected.allocations, name
        return expected


CTR = {a: 0.5 + 0.05 * a for a in range(12)}


def _small_harness():
    return BidsHarness(
        {"p": {0, 1, 2}, "q": {2, 3, 4}, "r": {4, 5, 0}},
        {a: (a % 7 + 1) * 100 for a in range(6)},
        CTR,
    )


def _random_harness(seed):
    rng = random.Random(seed)
    ids = rng.sample(range(100), 20)
    sets = {}
    seen = set()
    while len(sets) < 6:
        members = frozenset(rng.sample(ids, rng.randint(1, 9)))
        if members not in seen:
            seen.add(members)
            sets[f"q{len(sets)}"] = members
    used = sorted({v for members in sets.values() for v in members})
    harness = BidsHarness(
        sets,
        {a: rng.randint(1, 6) * 100 for a in used},
        {a: rng.choice([0.25, 0.5, 1.0]) for a in used},
        k=rng.randint(1, 4),
    )
    return harness, rng


class TestHandCases:
    def test_bids_move_between_rounds_and_the_plan_holds(self):
        harness = _small_harness()
        plan = harness.plan
        harness.run_round_and_check()
        harness.move(2, 1200)
        harness.move(5, 650)
        harness.run_round_and_check()
        harness.move(5, 150)
        harness.run_round_and_check(["p", "r"])
        harness.move(0, 0)
        harness.run_round_and_check()
        assert harness.plan is plan
        plan.validate()

    def test_a_raised_bid_tops_only_its_own_phrases(self):
        harness = _small_harness()
        before = harness.run_round_and_check()
        harness.move(5, 10_000)
        after = harness.run_round_and_check()
        assert after.allocations["r"][0][1] == 5
        for name in ("p", "q"):
            assert after.allocations[name] == before.allocations[name]

    def test_equal_bids_fall_to_the_id_tie_break(self):
        harness = BidsHarness(
            {"p": {0, 1, 2}, "q": {2, 3, 4}, "r": {4, 5, 0}},
            {a: 300 for a in range(6)},
            {a: 1.0 for a in range(6)},
        )
        result = harness.run_round_and_check()
        assert [ad[1] for ad in result.allocations["q"]] == [2, 3]
        harness.move(4, 301)
        result = harness.run_round_and_check()
        assert [ad[1] for ad in result.allocations["q"]] == [4, 2]

    @pytest.mark.parametrize("bid", [float("nan"), 2**60, -1, 2.5])
    def test_a_rejected_bid_moves_no_answer(self, bid):
        harness = _small_harness()
        before = harness.run_round_and_check()
        with pytest.raises(InvalidAuctionError):
            harness.move(2, bid)
        after = harness.run_round_and_check()
        assert after.allocations == before.allocations
        assert harness.cached.dirty_rows_last_round().size == 0


@pytest.mark.parametrize("seed", range(10))
def test_random_markets_answer_moved_bids_like_a_scan(seed):
    harness, rng = _random_harness(seed)
    ids = sorted(harness.bid_cents)
    for _ in range(12):
        fraction = rng.choice([0.0, 0.1, 0.5, 1.0])
        for advertiser_id in ids:
            if rng.random() < fraction:
                harness.move(advertiser_id, rng.randint(1, 6) * 100)
        harness.run_round_and_check(sorted(rng.sample(harness.names, rng.randint(1, 6))))


@pytest.mark.parametrize("seed", range(10))
def test_a_cached_engine_rescans_only_the_moved_rows(seed):
    # The exec cache diffs the round's scores against the ones it last
    # absorbed: with every phrase occurring and no budget in play, a
    # round after set_bids reports exactly the advertisers whose bid
    # changed as dirty.
    harness, rng = _random_harness(seed)
    store = harness.engines["shared+exec_cache"]._store
    harness.run_round_and_check()
    for _ in range(8):
        moved = set()
        for advertiser_id in rng.sample(sorted(harness.bid_cents), 3):
            cents = rng.randint(1, 6) * 100
            if harness.bid_cents[advertiser_id] != cents:
                moved.add(advertiser_id)
            harness.move(advertiser_id, cents)
        harness.run_round_and_check()
        dirty = harness.cached.dirty_rows_last_round()
        assert set(store.ids[dirty].tolist()) == moved
        assert np.array_equal(dirty, np.sort(dirty))


# ----------------------------------------------------------------------
# the moving-bids differential
# ----------------------------------------------------------------------
def _market(seed):
    return generate_market(
        MarketConfig(
            num_categories=3,
            phrases_per_category=3,
            specialists_per_category=5,
            generalists=3,
            generalist_categories=2,
            median_budget_cents=2_000,
            seed=seed,
        )
    )


def _rebids(rng, engine, phrases, fraction):
    """``fraction`` (at least one) of ``phrases``' advertisers, each with
    a new bid of up to $4 -- four times the market's median."""
    bidders = sorted({a for p in phrases for a in engine.phrase_advertisers[p]})
    movers = sorted(rng.sample(bidders, math.ceil(fraction * len(bidders))))
    return movers, [rng.randint(0, 400) for _ in movers]


def _run_moving_bids(seed, fraction, rounds=8, ticks=8, **config):
    """Engine and reference in step, bids moving before every round and
    tick.  Returns how many moved advertisers held a kept Section IV
    problem when their bid moved."""
    market = _market(seed)
    engine, reference = _pair(market.advertisers, market.search_rates, seed, **config)
    rng = random.Random(f"rebids-{seed}")
    kept_and_moved = 0
    for _ in range(rounds):
        phrases = reference.sample_occurring_phrases()
        assert engine.sample_occurring_phrases() == phrases
        if phrases:
            ids, cents = _rebids(rng, engine, phrases, fraction)
            kept_and_moved += len(engine._standing_problems.keys() & set(ids))
            engine.set_bids(ids, cents)
            reference.set_bids(ids, cents)
        _same_outcome(engine.run_round(phrases), reference.run_round(phrases))
    phrases = sorted(engine.phrase_advertisers)
    for _ in range(ticks):
        phrase = rng.choice(phrases)
        ids, cents = _rebids(rng, engine, [phrase], fraction)
        kept_and_moved += len(engine._standing_problems.keys() & set(ids))
        engine.set_bids(ids, cents)
        reference.set_bids(ids, cents)
        _same_outcome(engine.serve_query(phrase), reference.serve_query(phrase))
    assert engine.settle_remaining_clicks() == reference.settle_remaining_clicks()
    assert (
        engine.budget_manager.spent_snapshot()
        == reference.budget_manager.spent_snapshot()
    )
    return kept_and_moved


@pytest.mark.parametrize("fraction", FRACTIONS)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("seed", range(50))
def test_moving_bids_match_the_reference(seed, mode, fraction):
    _run_moving_bids(seed, fraction, **MODES[mode])


def test_moved_bids_meet_kept_throttle_problems():
    # The differential above is only as strong as its markets: some
    # moved advertisers must carry debt with a kept problem, which
    # then answers for the new bid (ThrottleProblem.asked_again).
    kept = sum(
        _run_moving_bids(seed, 1.0, **MODES["shared+exec_cache"])
        for seed in range(5)
    )
    assert kept > 0


# ----------------------------------------------------------------------
# refusal parity
# ----------------------------------------------------------------------
BAD_UPDATES = {
    "unknown id": ([999], [100]),
    "repeated id": ([1, 1], [100, 200]),
    "negative": ([1], [-1]),
    "float cents": ([1], [100.0]),
    "nan": ([1], [float("nan")]),
    "bool": ([1], [True]),
    "past the exact bound": ([1], [2**53]),
    "int64 that wraps times widest": ([1], np.array([2**62])),
    "ragged": ([1, 2], [100]),
    "good then bad": ([2, 1], [150, -5]),
}


@pytest.mark.parametrize("bad", BAD_UPDATES)
@pytest.mark.parametrize("mode", MODES)
def test_a_refused_update_raises_on_both_and_moves_nothing(mode, bad):
    market = _market(3)
    engine, reference = _pair(market.advertisers, market.search_rates, 3, **MODES[mode])
    twin, reference_twin = _pair(
        market.advertisers, market.search_rates, 3, **MODES[mode]
    )
    rng = random.Random(bad)
    phrases = sorted(engine.phrase_advertisers)
    for round_index in range(8):
        if round_index in (2, 5):
            for target in (engine, reference):
                with pytest.raises(InvalidAuctionError):
                    target.set_bids(*BAD_UPDATES[bad])
        ids, cents = _rebids(rng, engine, phrases, 0.3)
        for target in (engine, twin, reference, reference_twin):
            target.set_bids(ids, cents)
        if round_index < 4:
            reports = [t.run_round() for t in (engine, twin, reference, reference_twin)]
        else:
            phrase = rng.choice(phrases)
            reports = [
                t.serve_query(phrase)
                for t in (engine, twin, reference, reference_twin)
            ]
        assert reports[0] == reports[1]
        assert reports[2] == reports[3]
        _same_outcome(reports[0], reports[2])
    assert np.array_equal(engine._store.bid_cents, twin._store.bid_cents)
    assert engine.run(3) == twin.run(3)
    assert reference.run(3) == reference_twin.run(3)


def test_the_largest_exact_bid_is_taken_by_both():
    market = _market(0)
    engine, reference = _pair(market.advertisers, market.search_rates)
    widest = len(engine.phrase_advertisers)
    largest = (2**53 - 1) // widest
    for target in (engine, reference):
        target.set_bids(np.array([0, 1]), np.array([largest, 0]))
        with pytest.raises(InvalidAuctionError):
            target.set_bids([0], [largest + 1])
    _same_outcome(engine.run_round(), reference.run_round())
