"""Tests for the per-round plan executor."""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.topk import TopKList
from repro.errors import InvalidPlanError
from repro.instrument import MetricsCollector, names
from repro.plans.dag import Plan
from repro.plans.executor import ExecutionResult, PlanExecutor
from repro.plans.greedy_planner import greedy_shared_plan
from repro.plans.instance import AggregateQuery, SharedAggregationInstance
from tests.conftest import query_families


@pytest.fixture
def instance():
    return SharedAggregationInstance(
        [
            AggregateQuery("pq", [1, 2, 3], 0.5),
            AggregateQuery("qr", [2, 3, 4], 0.5),
        ]
    )


@pytest.fixture
def executor(instance):
    return PlanExecutor(greedy_shared_plan(instance), 2)


class TestRunRound:
    def test_answers_match_brute_force(self, instance, executor):
        scores = {1: 4.0, 2: 1.0, 3: 3.0, 4: 2.0}
        result = executor.run_round(scores)
        for query in instance.queries:
            expected = TopKList(
                2, [(scores[v], v) for v in query.variables]
            )
            assert result.answers[query.name] == expected

    def test_only_occurring_queries_computed(self, executor):
        scores = {1: 4.0, 2: 1.0, 3: 3.0, 4: 2.0}
        result = executor.run_round(scores, occurring=["pq"])
        assert set(result.answers) == {"pq"}

    def test_counts_materialized_nodes(self, executor):
        scores = {1: 4.0, 2: 1.0, 3: 3.0, 4: 2.0}
        full = executor.run_round(scores)
        assert full.nodes_materialized == executor.plan.total_cost
        partial = executor.run_round(scores, occurring=["pq"])
        assert partial.nodes_materialized < full.nodes_materialized

    def test_missing_score_raises(self, executor):
        with pytest.raises(InvalidPlanError):
            executor.run_round({1: 1.0}, occurring=["pq"])

    def test_unknown_query_raises(self, executor):
        with pytest.raises(InvalidPlanError):
            executor.run_round({}, occurring=["nope"])

    def test_trivial_query_served_from_leaf(self):
        instance = SharedAggregationInstance(
            [AggregateQuery("big", [1, 2], 1.0), AggregateQuery("tiny", [3], 1.0)]
        )
        executor = PlanExecutor(greedy_shared_plan(instance), 2)
        result = executor.run_round({1: 1.0, 2: 2.0, 3: 3.0})
        assert result.answers["tiny"].advertiser_ids() == (3,)
        # Serving a leaf costs no merge.
        assert result.nodes_materialized == 1

    def test_requires_positive_k(self, instance):
        with pytest.raises(InvalidPlanError):
            PlanExecutor(greedy_shared_plan(instance), 0)

    def test_incomplete_plan_rejected(self, instance):
        with pytest.raises(InvalidPlanError):
            PlanExecutor(Plan(instance), 2)

    def test_string_variables_supported(self):
        instance = SharedAggregationInstance.from_sets(
            {"q": ["alice", "bob", "carol"]}
        )
        executor = PlanExecutor(greedy_shared_plan(instance), 2)
        result = executor.run_round({"alice": 3.0, "bob": 2.0, "carol": 1.0})
        assert len(result.answers["q"]) == 2


class TestWorkAccountingInvariant:
    """The executor *enforces* one merge per materialized node."""

    def test_counters_agree_over_random_rounds(self, instance, executor):
        collector = MetricsCollector()
        counted = PlanExecutor(executor.plan, 2, collector)
        rng = random.Random(3)
        for _ in range(6):
            occurring = [q.name for q in instance.queries if rng.random() < 0.7]
            counted.run_round(
                {v: float(rng.randint(1, 9)) for v in instance.variables},
                occurring,
            )
        assert collector.counter(names.PLAN_NODES) > 0
        assert collector.counter(names.PLAN_MERGES) == collector.counter(
            names.PLAN_NODES
        )

    def test_checker_rejects_merge_node_mismatch(self, executor):
        bad = ExecutionResult(nodes_materialized=2, merges_performed=1)
        with pytest.raises(InvalidPlanError, match="work-accounting"):
            executor._check_round_invariants(bad)


class TestSharingSavesWork:
    def test_shared_cheaper_than_independent(self):
        general = list(range(10))
        sports = list(range(10, 14))
        fashion = list(range(14, 17))
        instance = SharedAggregationInstance.from_sets(
            {"boots": general + sports, "heels": general + fashion}
        )
        scores = {v: float(v % 7) for v in instance.variables}
        shared = PlanExecutor(greedy_shared_plan(instance), 3).run_round(scores)
        # Independent resolution reads |I_q| advertisers per query.
        independent_scans = sum(len(q.variables) for q in instance.queries)
        assert shared.advertisers_scanned < independent_scans

    @settings(
        deadline=None,
        max_examples=20,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(query_families(max_queries=4, max_vars=7), st.integers(1, 4))
    def test_answers_always_correct(self, family, k):
        sets, rates = family
        instance = SharedAggregationInstance.from_sets(sets, rates)
        if not instance.queries:
            return
        executor = PlanExecutor(greedy_shared_plan(instance), k)
        scores = {v: (hash(v) % 100) / 10.0 for v in instance.variables}
        result = executor.run_round(scores)
        from repro.plans.executor import _as_int

        for query in instance.queries:
            expected = TopKList(
                k, [(scores[v], _as_int(v)) for v in query.variables]
            )
            assert result.answers[query.name] == expected
