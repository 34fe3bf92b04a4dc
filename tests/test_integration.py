"""Cross-module integration tests.

These tie the layers together: algebraic axioms hold for the concrete
top-k operator; A-equivalent expressions evaluate identically through
the executor; plan cost models agree with the plan's work over the
engine's sampled rounds; the shared sort feeds the threshold algorithm
the same rankings the plan executor computes when CTR factors are
phrase-independent.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.algebra.axioms import Axiom, AxiomProfile
from repro.algebra.expressions import Op, Var, equivalent
from repro.core.topk import TopKList, top_k_merge
from repro.engine import SharedAuctionEngine
from repro.plans.cost import expected_plan_cost
from repro.plans.executor import PlanExecutor
from repro.plans.greedy_planner import greedy_shared_plan
from repro.plans.instance import AggregateQuery, SharedAggregationInstance
from repro.sharedsort import build_shared_sort_plan, threshold_top_k
from repro.workloads.generator import MarketConfig, generate_market

SEMILATTICE = AxiomProfile({Axiom.A1, Axiom.A2, Axiom.A3, Axiom.A4})


def evaluate(expr, assignment, k):
    """Evaluate an ⊕-expression with top-k merge over TopKList values."""
    if isinstance(expr, Var):
        return assignment[expr.name]
    return top_k_merge(
        evaluate(expr.left, assignment, k), evaluate(expr.right, assignment, k)
    )


@st.composite
def expr_pairs(draw):
    names = ["x", "y", "z"]

    def build(depth):
        if depth == 0 or draw(st.booleans()):
            return Var(draw(st.sampled_from(names)))
        return Op(build(depth - 1), build(depth - 1))

    return build(draw(st.integers(1, 3))), build(draw(st.integers(1, 3)))


class TestAlgebraMeetsTopK:
    """Lemma 1 soundness for the *actual* operator: A-equivalent
    expressions evaluate to equal top-k lists."""

    @settings(
        deadline=None,
        max_examples=60,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(expr_pairs(), st.integers(min_value=1, max_value=3))
    def test_equivalent_expressions_equal_topk_values(self, pair, k):
        e1, e2 = pair
        rng = random.Random(7)
        assignment = {
            name: TopKList(
                k,
                [
                    (rng.uniform(0, 10), rng.randrange(8))
                    for _ in range(rng.randrange(4))
                ],
            )
            for name in "xyz"
        }
        if equivalent(e1, e2, SEMILATTICE):
            assert evaluate(e1, assignment, k) == evaluate(e2, assignment, k)


class TestPlanMeetsEngine:
    def test_plan_cost_tracks_engine_merges(self):
        """Executing the greedy plan over the engine's sampled rounds
        averages out to the plan's expected materialization cost."""
        market = generate_market(
            MarketConfig(
                num_categories=2,
                phrases_per_category=3,
                specialists_per_category=8,
                generalists=6,
                seed=3,
            )
        )
        engine = SharedAuctionEngine(
            market.advertisers,
            slot_factors=[0.3, 0.2],
            search_rates=market.search_rates,
            mode="shared",
            throttle=False,
            seed=4,
        )
        instance = SharedAggregationInstance(
            AggregateQuery(phrase, ids, engine.search_rates[phrase])
            for phrase, ids in engine.phrase_advertisers.items()
        )
        executor = PlanExecutor(greedy_shared_plan(instance), 3)
        # A-equivalent phrases deduplicate to one plan query.
        query_of = {
            q.variables: q.name
            for q in instance.queries + instance.trivial_queries
        }
        scores = {
            a.advertiser_id: a.bid * a.ctr_factor for a in market.advertisers
        }
        rounds = 400
        merges = 0
        for report in engine.run(rounds).history:
            occurring = {
                query_of[frozenset(engine.phrase_advertisers[phrase])]
                for phrase in report.occurring_phrases
            }
            if occurring:
                merges += executor.run_round(
                    scores, sorted(occurring)
                ).merges_performed
        expected = expected_plan_cost(executor.plan)
        empirical = merges / rounds
        assert abs(empirical - expected) < 0.2 * max(1.0, expected)

    def test_executor_matches_engine_phrase_rankings(self):
        market = generate_market(
            MarketConfig(
                num_categories=2,
                phrases_per_category=2,
                specialists_per_category=6,
                generalists=4,
                seed=5,
            )
        )
        instance = SharedAggregationInstance.from_sets(
            {p: list(ids) for p, ids in market.phrase_advertisers.items()},
            market.search_rates,
        )
        plan = greedy_shared_plan(instance)
        executor = PlanExecutor(plan, 3)
        scores = {
            a.advertiser_id: a.bid * a.ctr_factor
            for a in market.advertisers
        }
        result = executor.run_round(scores)
        for phrase, ids in market.phrase_advertisers.items():
            if len(ids) < 2:
                continue
            expected = sorted(ids, key=lambda i: (-scores[i], i))[:3]
            assert list(result.answers[phrase].advertiser_ids()) == expected


class TestSharedSortMeetsPlans:
    def test_shared_sort_and_plan_executor_agree(self):
        """With phrase-independent CTR factors, the Section III pipeline
        (shared sort + TA per phrase) must produce the same rankings as
        the Section II pipeline (shared top-k plan)."""
        phrases = {
            "a": [1, 2, 3, 4, 5, 6],
            "b": [1, 2, 3, 7, 8],
            "c": [4, 5, 6, 7],
        }
        rng = random.Random(11)
        bids = {i: round(rng.uniform(0.5, 9.5), 2) for i in range(1, 9)}
        factors = {i: round(rng.uniform(0.4, 1.6), 3) for i in range(1, 9)}
        k = 3

        # Section II route.
        instance = SharedAggregationInstance.from_sets(phrases)
        executor = PlanExecutor(greedy_shared_plan(instance), k)
        plan_result = executor.run_round(
            {i: bids[i] * factors[i] for i in range(1, 9)}
        )

        # Section III route: sort by bids, TA with c_i random access.
        sort_plan = build_shared_sort_plan(phrases, 1.0)
        live = sort_plan.instantiate(bids)
        for phrase, ads in phrases.items():
            ctr_order = sorted(ads, key=lambda i: (-factors[i], i))
            ta = threshold_top_k(
                k, live.stream_for_phrase(phrase), ctr_order, bids, factors
            )
            assert (
                ta.ranking.advertiser_ids()
                == plan_result.answers[phrase].advertiser_ids()
            )


class TestEndToEndDeterminism:
    def test_same_seed_same_world(self):
        market = generate_market(MarketConfig(seed=8))
        runs = []
        for _ in range(2):
            engine = SharedAuctionEngine(
                market.advertisers,
                slot_factors=[0.3, 0.2],
                search_rates=market.search_rates,
                seed=21,
            )
            runs.append(engine.run(25))
        assert runs[0].revenue_cents == runs[1].revenue_cents
        assert runs[0].merges == runs[1].merges
        assert runs[0].scans == runs[1].scans
