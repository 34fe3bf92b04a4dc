"""Tests for incremental plan maintenance."""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import InvalidPlanError, PlanConstructionError
from repro.plans.cost import expected_plan_cost
from repro.plans.executor import PlanExecutor
from repro.plans.greedy_planner import greedy_shared_plan
from repro.plans.instance import SharedAggregationInstance
from repro.plans.maintenance import PlanMaintainer


@pytest.fixture
def maintainer():
    return PlanMaintainer(
        {
            "boots": {1, 2, 3, 4},
            "heels": {1, 2, 5},
            "sandals": {5, 6},
        },
        {"boots": 0.8, "heels": 0.6, "sandals": 0.3},
        replan_after=10,
    )


def check_answers(maintainer):
    """The maintained plan must answer every live query exactly."""
    interests = maintainer.interests()
    variables = {v for ids in interests.values() for v in ids}
    scores = {v: float((hash(v) * 31) % 101) for v in variables}
    executor = PlanExecutor(maintainer.plan, 2)
    instance = maintainer.plan.instance
    result = executor.run_round(scores)
    for query in instance.queries:
        expected = sorted(
            query.variables, key=lambda v: (-scores[v], v)
        )[:2]
        assert list(result.answers[query.name].advertiser_ids()) == expected


class TestBasics:
    def test_initial_plan_valid(self, maintainer):
        maintainer.plan.validate()
        check_answers(maintainer)

    def test_replan_after_validation(self):
        with pytest.raises(PlanConstructionError):
            PlanMaintainer({"p": {1, 2}}, replan_after=0)

    def test_unknown_phrase_rejected(self, maintainer):
        with pytest.raises(InvalidPlanError):
            maintainer.add_interest("gloves", 1)
        with pytest.raises(InvalidPlanError):
            maintainer.remove_interest("gloves", 1)
        with pytest.raises(InvalidPlanError):
            maintainer.drop_phrase("gloves")


class TestMutations:
    def test_add_interest_repairs(self, maintainer):
        maintainer.add_interest("sandals", 1)
        assert 1 in maintainer.interests()["sandals"]
        maintainer.plan.validate()
        check_answers(maintainer)
        assert maintainer.repairs_since_replan == 1

    def test_add_existing_interest_is_noop(self, maintainer):
        maintainer.add_interest("boots", 1)
        assert maintainer.repairs_since_replan == 0

    def test_remove_interest_repairs(self, maintainer):
        maintainer.remove_interest("boots", 4)
        assert 4 not in maintainer.interests()["boots"]
        check_answers(maintainer)

    def test_remove_absent_interest_is_noop(self, maintainer):
        maintainer.remove_interest("boots", 99)
        assert maintainer.repairs_since_replan == 0

    def test_remove_last_advertiser_rejected(self, maintainer):
        maintainer.remove_interest("sandals", 6)
        with pytest.raises(InvalidPlanError):
            maintainer.remove_interest("sandals", 5)

    def test_add_phrase(self, maintainer):
        maintainer.add_phrase("gloves", {2, 3, 6}, search_rate=0.4)
        check_answers(maintainer)

    def test_add_duplicate_phrase_rejected(self, maintainer):
        with pytest.raises(InvalidPlanError):
            maintainer.add_phrase("boots", {1})

    def test_add_empty_phrase_rejected(self, maintainer):
        with pytest.raises(InvalidPlanError):
            maintainer.add_phrase("gloves", set())

    def test_drop_phrase(self, maintainer):
        maintainer.drop_phrase("sandals")
        assert "sandals" not in maintainer.interests()
        check_answers(maintainer)

    def test_add_advertiser_joins_and_creates_phrases(self, maintainer):
        maintainer.add_advertiser(7, {"heels", "gloves"})
        interests = maintainer.interests()
        assert interests["heels"] == frozenset({1, 2, 5, 7})
        assert interests["gloves"] == frozenset({7})
        check_answers(maintainer)

    def test_remove_advertiser_drops_sole_phrases(self, maintainer):
        maintainer.remove_interest("sandals", 5)
        maintainer.remove_advertiser(6)
        interests = maintainer.interests()
        assert "sandals" not in interests
        assert all(6 not in ids for ids in interests.values())
        check_answers(maintainer)

    def test_remove_unknown_advertiser_is_noop(self, maintainer):
        before = maintainer.plan
        maintainer.remove_advertiser(99)
        assert maintainer.plan is before
        assert maintainer.repairs_since_replan == 0


class TestDriftPolicy:
    def test_replan_triggers_after_budget(self):
        maintainer = PlanMaintainer(
            {"p": {1, 2, 3}, "q": {2, 3, 4}}, replan_after=3
        )
        maintainer.add_interest("p", 4)
        maintainer.add_interest("q", 1)
        assert maintainer.replans == 0
        maintainer.add_interest("p", 5)
        assert maintainer.replans == 1
        assert maintainer.repairs_since_replan == 0
        check_answers(maintainer)

    def test_replan_restores_cost_quality(self):
        """After heavy drift, a replan should not be worse than the
        drifted plan (and is typically better)."""
        maintainer = PlanMaintainer(
            {
                "p": set(range(8)),
                "q": set(range(4, 12)),
            },
            replan_after=1000,  # never auto-replan during the drift
        )
        rng = random.Random(1)
        for _ in range(12):
            phrase = rng.choice(["p", "q"])
            advertiser = rng.randrange(16)
            if advertiser in maintainer.interests()[phrase]:
                if len(maintainer.interests()[phrase]) > 2:
                    maintainer.remove_interest(phrase, advertiser)
            else:
                maintainer.add_interest(phrase, advertiser)
        drifted_cost = maintainer.expected_cost()
        fresh = greedy_shared_plan(
            SharedAggregationInstance.from_sets(
                {p: list(ids) for p, ids in maintainer.interests().items()}
            )
        )
        assert expected_plan_cost(fresh) <= drifted_cost + 1e-9
        check_answers(maintainer)


class TestPropertyBased:
    @settings(
        deadline=None,
        max_examples=15,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(st.lists(st.integers(min_value=0, max_value=60), min_size=1, max_size=25), st.randoms(use_true_random=False))
    def test_random_drift_stays_exact(self, ops, rnd):
        maintainer = PlanMaintainer(
            {"p": {0, 1, 2}, "q": {1, 2, 3}, "r": {0, 3, 4}},
            replan_after=5,
        )
        phrases = ["p", "q", "r"]
        for op in ops:
            phrase = phrases[op % 3]
            advertiser = (op * 7) % 9
            interests = maintainer.interests()[phrase]
            if advertiser in interests:
                if len(interests) > 2:
                    maintainer.remove_interest(phrase, advertiser)
            else:
                maintainer.add_interest(phrase, advertiser)
            maintainer.plan.validate()
        check_answers(maintainer)
