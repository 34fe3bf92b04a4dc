"""Market churn: the plan maintainer repairs as it is told.

Advertisers and phrases enter and leave mid-run through
:class:`PlanMaintainer`'s methods (``add_advertiser`` /
``remove_advertiser`` / ``add_phrase`` / ``drop_phrase``), each of
which repairs the plan before it returns.  After every step the
repaired plan, run through a fresh :class:`PlanExecutor`, must answer
every live phrase exactly like an independent scan, and a shared-sort
plan built from the live interests must stream every phrase's bids in
descending order.
"""

from __future__ import annotations

import pytest

from repro.core.topk import top_k_scan
from repro.errors import InvalidPlanError
from repro.plans.executor import PlanExecutor
from repro.plans.maintenance import PlanMaintainer
from repro.sharedsort.plan import build_shared_sort_plan


def drain(stream):
    items = []
    index = 0
    while (item := stream.item(index)) is not None:
        items.append(item)
        index += 1
    return items


class ChurnHarness:
    """A maintainer, checked against fresh oracles."""

    K = 2
    CTR = {a: 0.5 + 0.05 * a for a in range(12)}

    def __init__(self):
        self.maintainer = PlanMaintainer(
            {"p": {0, 1, 2}, "q": {2, 3, 4}, "r": {4, 5, 0}},
            replan_after=8,
        )
        self.plans = []
        self.maintainer.subscribe(self.plans.append)
        self.bids = {a: float(a % 7 + 1) for a in range(6)}

    def scores(self):
        return {a: bid * self.CTR[a] for a, bid in self.bids.items()}

    def run_round_and_check(self):
        """One round through the live plan and a fresh sort plan."""
        scores = self.scores()
        plan = self.maintainer.plan
        result = PlanExecutor(plan, self.K).run_round(dict(scores))
        for query in plan.instance.queries:
            expected = top_k_scan(
                self.K, [(scores[v], v) for v in sorted(query.variables)]
            )
            assert result.answers[query.name] == expected, query.name
        interests = self.maintainer.interests()
        sort_plan = build_shared_sort_plan(
            {phrase: sorted(ids) for phrase, ids in sorted(interests.items())},
            1.0,
        )
        live = sort_plan.instantiate(dict(self.bids))
        for phrase, ids in sorted(interests.items()):
            streamed = drain(live.stream_for_phrase(phrase))
            assert [advertiser_id for _, advertiser_id in streamed] == sorted(
                ids, key=lambda a: (-self.bids[a], a)
            ), phrase
        return result


class TestAdvertiserChurn:
    def test_advertiser_enters_existing_and_new_phrases(self):
        harness = ChurnHarness()
        harness.run_round_and_check()
        harness.bids[6] = 9.0
        harness.maintainer.add_advertiser(6, {"p", "brand-new"})
        interests = harness.maintainer.interests()
        assert 6 in interests["p"]
        assert interests["brand-new"] == frozenset({6})
        assert harness.plans, "the repair must notify plan listeners"
        result = harness.run_round_and_check()
        assert "brand-new" in result.answers or any(
            q.name == "brand-new"
            for q in harness.maintainer.plan.instance.trivial_queries
        )

    def test_advertiser_leaves_dropping_singleton_phrases(self):
        harness = ChurnHarness()
        harness.run_round_and_check()
        harness.bids[7] = 3.0
        harness.maintainer.add_advertiser(7, {"solo", "q"})
        harness.run_round_and_check()
        harness.maintainer.remove_advertiser(7)
        del harness.bids[7]
        interests = harness.maintainer.interests()
        assert "solo" not in interests, "singleton phrase must be dropped"
        assert 7 not in interests["q"]
        harness.run_round_and_check()

    def test_readded_advertiser_with_new_bid_is_covered(self):
        # Leave and come back with a different bid: the re-added
        # advertiser ranks on its new bid.
        harness = ChurnHarness()
        harness.run_round_and_check()
        harness.bids[8] = 2.0
        harness.maintainer.add_advertiser(8, {"r"})
        harness.run_round_and_check()
        harness.maintainer.remove_advertiser(8)
        del harness.bids[8]
        harness.run_round_and_check()
        harness.bids[8] = 11.0  # different bid on re-entry
        harness.maintainer.add_advertiser(8, {"p"})
        harness.run_round_and_check()


class TestPhraseChurn:
    def test_phrase_added_and_removed(self):
        harness = ChurnHarness()
        harness.run_round_and_check()
        harness.maintainer.add_phrase("z", {1, 3}, 0.8)
        interests = harness.maintainer.interests()
        assert interests["z"] == frozenset({1, 3})
        harness.run_round_and_check()
        harness.maintainer.drop_phrase("z")
        assert "z" not in harness.maintainer.interests()
        harness.run_round_and_check()

    def test_duplicate_phrase_add_raises(self):
        harness = ChurnHarness()
        with pytest.raises(InvalidPlanError, match="already exists"):
            harness.maintainer.add_phrase("p", {1})

    def test_unknown_phrase_removal_raises(self):
        harness = ChurnHarness()
        with pytest.raises(InvalidPlanError, match="unknown phrase"):
            harness.maintainer.drop_phrase("never-existed")


class TestChurnAndValueChangesCompose:
    def test_interleaved_churn_bids_and_rounds(self):
        harness = ChurnHarness()
        harness.run_round_and_check()
        # Structural and value changes in the same inter-round gap: a
        # bid moves the scores only, never the plan.
        harness.bids[2] = 12.0
        harness.bids[9] = 6.5
        harness.maintainer.add_advertiser(9, {"q", "r"})
        harness.run_round_and_check()
        harness.maintainer.add_phrase("w", {0, 9}, 0.5)
        harness.bids[9] = 1.5
        harness.run_round_and_check()
        harness.maintainer.remove_advertiser(9)
        del harness.bids[9]
        # Phrase "w" survives with advertiser 0 alone.
        assert harness.maintainer.interests()["w"] == frozenset({0})
        harness.run_round_and_check()
        assert len(harness.plans) >= 3

    def test_disjoint_repair_keeps_untouched_structure(self):
        # A phrase over advertisers 1 and 5 is repaired in; the nodes
        # answering the existing phrases keep their variable sets.
        harness = ChurnHarness()
        before = harness.maintainer.plan
        kept = {
            query.name: before.node(before.query_node(query)).varset
            for query in before.instance.queries
        }
        harness.maintainer.add_phrase("extra", {1, 5}, 0.9)
        after = harness.maintainer.plan
        assert after is not before
        for name, varset in kept.items():
            assert after.node_for_varset(varset) is not None, name
        harness.run_round_and_check()
