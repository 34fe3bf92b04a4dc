"""Executing a shared plan on live bids, round by round.

The planners fix the plan *offline*; each round, bids have changed and a
subset of the bid phrases occurs.  :class:`PlanExecutor` materializes --
lazily and memoized within the round -- exactly the nodes needed for the
queries that occurred, mirroring the paper's cost model: a node is
materialized iff it is used to compute some occurring query.

Work-accounting contract: the base executor performs exactly one binary
merge per materialized operator node, and :meth:`PlanExecutor.run_round`
*enforces* ``merges_performed == nodes_materialized`` after every round.

The executor counts materialized operator nodes so tests can check the
closed-form expected cost against the empirical average over random
rounds, and benchmarks can report actual work saved by sharing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Mapping, Optional

from repro.core.topk import TopKList, top_k_merge
from repro.errors import InvalidPlanError
from repro.instrument import NULL, Collector, names as metric_names
from repro.plans.dag import Plan

__all__ = ["PlanExecutor", "ExecutionResult"]

Variable = Hashable
NodeId = int


@dataclass
class ExecutionResult:
    """Outcome of executing a plan for one round.

    Attributes:
        answers: Per occurring query, the top-k list of its advertisers.
        nodes_materialized: Operator nodes whose value was established
            this round (the paper's per-round cost).
        merges_performed: Binary top-k merges actually executed: one per
            materialized operator node, which
            :meth:`PlanExecutor.run_round` *checks* after every round.
        advertisers_scanned: Leaf values read this round (used by the
            scan-count comparisons, e.g. the shoe-store example E2).
        cache_hits: Node requests served by the round memo -- a node
            shared by several occurring queries is materialized once and
            hit here thereafter.
        cache_misses: First materializations within the round (leaves
            included), the complement of ``cache_hits``.
    """

    answers: Dict[str, TopKList] = field(default_factory=dict)
    nodes_materialized: int = 0
    merges_performed: int = 0
    advertisers_scanned: int = 0
    cache_hits: int = 0
    cache_misses: int = 0


class PlanExecutor:
    """Evaluates a plan's queries for rounds of live scores.

    Args:
        plan: A validated complete plan.
        k: The top-k capacity (number of ad slots).
        collector: Receives ``plan.*`` counters each round (see
            :mod:`repro.instrument.names`).  The default no-op collector
            keeps the executor's own ``ExecutionResult`` counters as the
            only bookkeeping.
    """

    def __init__(self, plan: Plan, k: int, collector: Collector = NULL) -> None:
        plan.validate()
        if k <= 0:
            raise InvalidPlanError(f"k must be positive, got {k}")
        self.plan = plan
        self.k = k
        self.collector = collector

    def run_round(
        self,
        scores: Mapping[Variable, float],
        occurring: Optional[Iterable[str]] = None,
    ) -> ExecutionResult:
        """Execute one round.

        Args:
            scores: Current ``b_i * c_i`` score per variable (advertiser).
                Every leaf of an occurring query must have a score.
            occurring: Names of the queries occurring this round; defaults
                to all of the instance's queries.

        Returns:
            The per-query top-k answers and work counters.

        Raises:
            InvalidPlanError: On unknown queries, missing scores, or a
                violated work-accounting invariant (see
                :meth:`_check_round_invariants`).
        """
        plan = self.plan
        instance = plan.instance
        names = self._occurring_names(occurring)
        result = ExecutionResult()
        cache: Dict[int, TopKList] = {}
        collector = self.collector
        keyed = collector.enabled

        def materialize(node_id: int) -> TopKList:
            """Evaluate a node, memoized for the round.

            ``advertisers_scanned`` counts *reads of leaf values by
            operator nodes* (plus direct leaf answers to trivial
            queries): a leaf feeding two distinct operator nodes is
            scanned twice, which is what makes the unshared baseline's
            scan count additive per query while shared plans read each
            fragment's advertisers once -- matching the paper's 470 vs
            270 bookkeeping in the shoe-store example.
            """
            cached = cache.get(node_id)
            if cached is not None:
                result.cache_hits += 1
                return cached
            result.cache_misses += 1
            node = plan.node(node_id)
            if node.is_leaf:
                variable = node.variable
                try:
                    score = scores[variable]
                except KeyError:
                    raise InvalidPlanError(
                        f"no score provided for advertiser {variable!r}"
                    ) from None
                value = TopKList.singleton(self.k, score, _as_int(variable))
            else:
                assert node.left is not None and node.right is not None
                for child in (node.left, node.right):
                    if plan.node(child).is_leaf:
                        result.advertisers_scanned += 1
                value = top_k_merge(
                    materialize(node.left), materialize(node.right)
                )
                result.nodes_materialized += 1
                result.merges_performed += 1
                if keyed:
                    collector.incr_keyed(metric_names.PLAN_NODE_MERGES, node_id)
            cache[node_id] = value
            return value

        for name in names:
            query = instance.query_by_name(name)
            node_id = plan.query_node(query)
            if node_id is None:
                raise InvalidPlanError(f"plan does not answer query {name!r}")
            if plan.node(node_id).is_leaf:
                result.advertisers_scanned += 1
            result.answers[name] = materialize(node_id)

        self._check_round_invariants(result)
        self._flush_round(result, len(names))
        return result

    def _occurring_names(self, occurring: Optional[Iterable[str]]) -> List[str]:
        """Resolve the occurring-query names for one round."""
        if occurring is None:
            instance = self.plan.instance
            return [q.name for q in instance.queries] + [
                q.name for q in instance.trivial_queries
            ]
        return list(occurring)

    def _check_round_invariants(self, result: ExecutionResult) -> None:
        """Enforce the work-accounting invariant: one binary merge per
        materialized operator node.

        Raises:
            InvalidPlanError: If the counters disagree.
        """
        if result.merges_performed != result.nodes_materialized:
            raise InvalidPlanError(
                "work-accounting invariant violated: "
                f"{result.merges_performed} merges vs "
                f"{result.nodes_materialized} materialized nodes (the base "
                "executor performs exactly one merge per operator node)"
            )

    def _flush_round(self, result: ExecutionResult, num_queries: int) -> None:
        """Flush the round's tallies to the collector once.

        With the null collector these five calls are the executor's
        entire instrumentation overhead.
        """
        collector = self.collector
        collector.incr(metric_names.PLAN_NODES, result.nodes_materialized)
        collector.incr(metric_names.PLAN_MERGES, result.merges_performed)
        collector.incr(metric_names.PLAN_LEAF_SCANS, result.advertisers_scanned)
        collector.incr(metric_names.PLAN_CACHE_HITS, result.cache_hits)
        collector.incr(metric_names.PLAN_CACHE_MISSES, result.cache_misses)
        if collector.enabled:
            collector.event(
                "plan.round",
                queries=num_queries,
                nodes=result.nodes_materialized,
                cache_hits=result.cache_hits,
                leaf_scans=result.advertisers_scanned,
            )

    def average_cost(
        self,
        scores: Mapping[Variable, float],
        rounds: int,
        rng,
    ) -> float:
        """Empirical mean materialized-node count over simulated rounds.

        Each round, every query occurs independently with its search
        rate; the returned average estimates the plan's expected cost and
        is compared against the closed form in property tests.

        Args:
            scores: Scores used for every round (values do not affect the
                cost, only the answers).
            rounds: Number of simulated rounds.
            rng: A ``random.Random``-like source with a ``random()``
                method.
        """
        instance = self.plan.instance
        total = 0
        for _ in range(rounds):
            occurring = [
                q.name
                for q in instance.queries
                if rng.random() < q.search_rate
            ]
            total += self.run_round(scores, occurring).nodes_materialized
        return total / rounds if rounds else 0.0


def _as_int(variable: Variable) -> int:
    """Map a variable to the integer advertiser id TopKList expects.

    Integer variables pass through; other hashables get a stable hash-
    derived id (collisions are acceptable for cost-counting runs, and
    auction runs always use integer advertiser ids).
    """
    if isinstance(variable, int):
        return variable
    return abs(hash(variable)) % (2**31)
