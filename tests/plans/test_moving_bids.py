"""A fixed plan under moving bids.

The market's structure is fixed when its plans are built (Section II-B
computes them offline, once); what moves from round to round is the
bids.  A plan built once must keep answering every phrase exactly like
an independent scan however the bids move, through each executor that
runs it: the object :class:`PlanExecutor`, the columnar
:class:`ColumnarFragmentExecutor` (cross-round cache on and off) reading
a :class:`ColumnarStore` whose bids move through ``set_bid``, and a
shared-sort plan's live network.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.advertiser import Advertiser
from repro.core.columnar import ColumnarStore
from repro.core.topk import top_k_scan
from repro.errors import InvalidAuctionError
from repro.plans.columnar_exec import ColumnarFragmentExecutor
from repro.plans.executor import PlanExecutor
from repro.plans.greedy_planner import greedy_shared_plan
from repro.plans.instance import SharedAggregationInstance
from repro.sharedsort.plan import build_shared_sort_plan


def drain(stream):
    items = []
    index = 0
    while (item := stream.item(index)) is not None:
        items.append(item)
        index += 1
    return items


class BidsHarness:
    """One market, its plans built once, checked against fresh scans."""

    def __init__(self, interests, bids, ctrs, k=2):
        self.k = k
        self.interests = {p: frozenset(ids) for p, ids in interests.items()}
        self.instance = SharedAggregationInstance.from_sets(self.interests)
        self.plan = greedy_shared_plan(self.instance)
        self.executor = PlanExecutor(self.plan, k)
        phrases_of = {}
        for phrase, ids in self.interests.items():
            for advertiser_id in ids:
                phrases_of.setdefault(advertiser_id, set()).add(phrase)
        self.store = ColumnarStore(
            [
                Advertiser(
                    advertiser_id, bids[advertiser_id],
                    ctr_factor=ctrs[advertiser_id],
                    phrases=frozenset(phrases),
                )
                for advertiser_id, phrases in phrases_of.items()
            ]
        )
        self.cached = ColumnarFragmentExecutor(
            self.instance, self.store, k, cross_round=True
        )
        self.fresh = ColumnarFragmentExecutor(self.instance, self.store, k)
        self.sort_plan = build_shared_sort_plan(
            {p: sorted(ids) for p, ids in sorted(self.interests.items())}
        )
        self.members = {
            q.name: q.variables
            for q in self.instance.queries + self.instance.trivial_queries
        }
        self.names = sorted(self.members)

    def move(self, advertiser_id, bid):
        self.store.set_bid(advertiser_id, bid)

    def scores_by_row(self):
        return self.store.bid_cents * self.store.ctr_factors

    def scores(self):
        return dict(
            zip(self.store.ids.tolist(), self.scores_by_row().tolist())
        )

    def expected(self, name):
        scores = self.scores()
        return top_k_scan(
            self.k, [(scores[v], v) for v in sorted(self.members[name])]
        )

    def run_round_and_check(self, names=None):
        """One round through every executor; all equal a fresh scan."""
        names = self.names if names is None else names
        result = self.executor.run_round(self.scores(), occurring=names)
        cached = self.cached.run_round(self.scores_by_row(), names)
        fresh = self.fresh.run_round(self.scores_by_row(), names)
        for name in names:
            expected = self.expected(name)
            assert result.answers[name] == expected, name
            assert cached.answers[name] == expected, name
            assert fresh.answers[name] == expected, name
        bids = dict(zip(self.store.ids.tolist(), self.store.bids.tolist()))
        live = self.sort_plan.instantiate(bids)
        for phrase, ids in sorted(self.interests.items()):
            streamed = drain(live.stream_for_phrase(phrase))
            assert [advertiser_id for _, advertiser_id in streamed] == sorted(
                ids, key=lambda a: (-bids[a], a)
            ), phrase
        return result


CTR = {a: 0.5 + 0.05 * a for a in range(12)}


def _small_harness():
    return BidsHarness(
        {"p": {0, 1, 2}, "q": {2, 3, 4}, "r": {4, 5, 0}},
        {a: float(a % 7 + 1) for a in range(6)},
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
        {a: float(rng.randint(1, 6)) for a in used},
        {a: rng.choice([0.5, 1.0, 2.0]) for a in used},
        k=rng.randint(1, 4),
    )
    return harness, rng


class TestHandCases:
    def test_bids_move_between_rounds_and_the_plan_holds(self):
        harness = _small_harness()
        plan = harness.plan
        harness.run_round_and_check()
        harness.move(2, 12.0)
        harness.move(5, 6.5)
        harness.run_round_and_check()
        harness.move(5, 1.5)
        harness.run_round_and_check(["p", "r"])
        harness.move(0, 0.0)
        harness.run_round_and_check()
        assert harness.plan is plan
        plan.validate()

    def test_a_raised_bid_tops_only_its_own_phrases(self):
        harness = _small_harness()
        before = harness.run_round_and_check()
        harness.move(5, 100.0)
        after = harness.run_round_and_check()
        assert after.answers["r"].entries[0].advertiser_id == 5
        for name in ("p", "q"):
            assert after.answers[name] == before.answers[name]

    def test_equal_bids_fall_to_the_id_tie_break(self):
        harness = BidsHarness(
            {"p": {0, 1, 2}, "q": {2, 3, 4}, "r": {4, 5, 0}},
            {a: 3.0 for a in range(6)},
            {a: 1.0 for a in range(6)},
        )
        result = harness.run_round_and_check()
        assert list(result.answers["q"].advertiser_ids()) == [2, 3]
        harness.move(4, 3.01)
        result = harness.run_round_and_check()
        assert list(result.answers["q"].advertiser_ids()) == [4, 2]

    @pytest.mark.parametrize("bid", [float("nan"), 1e300, -1.0])
    def test_a_rejected_bid_moves_no_answer(self, bid):
        harness = _small_harness()
        before = harness.run_round_and_check()
        with pytest.raises(InvalidAuctionError):
            harness.move(2, bid)
        after = harness.run_round_and_check()
        assert after.answers == before.answers
        assert harness.cached.dirty_rows_last_round().size == 0


@pytest.mark.parametrize("seed", range(10))
def test_random_markets_answer_moved_bids_like_a_scan(seed):
    harness, rng = _random_harness(seed)
    ids = harness.store.ids.tolist()
    for _ in range(12):
        fraction = rng.choice([0.0, 0.1, 0.5, 1.0])
        for advertiser_id in ids:
            if rng.random() < fraction:
                harness.move(advertiser_id, float(rng.randint(1, 6)))
        names = sorted(rng.sample(harness.names, rng.randint(1, 6)))
        harness.run_round_and_check(names)


@pytest.mark.parametrize("seed", range(10))
def test_a_cached_executor_rescans_only_the_moved_rows(seed):
    # The cross-round executor diffs the store's scores against the
    # ones it last absorbed: a round after a set_bid reports exactly the
    # moved advertisers that the round scores as dirty.
    harness, rng = _random_harness(seed)
    names = harness.names
    harness.run_round_and_check(names)
    for _ in range(8):
        moved = set()
        for advertiser_id in rng.sample(harness.store.ids.tolist(), 3):
            bid = float(rng.randint(1, 6))
            row = harness.store.row_of(advertiser_id)
            if harness.store.bids[row] != bid:
                moved.add(advertiser_id)
            harness.move(advertiser_id, bid)
        harness.run_round_and_check(names)
        dirty = harness.cached.dirty_rows_last_round()
        assert set(harness.store.ids[dirty].tolist()) == moved
        assert np.array_equal(dirty, np.sort(dirty))
