"""Shared top-k aggregation plans (Section II of the paper).

The shared-aggregation problem: given a set of aggregate queries, each a
set of variables (the advertisers interested in one bid phrase) with a
search rate, build a DAG of binary ``⊕`` nodes computing every query while
minimizing the *expected number of nodes materialized per round*.

Modules:

- :mod:`repro.plans.instance` -- queries and problem instances.
- :mod:`repro.plans.dag` -- the plan DAG and its structural validation.
- :mod:`repro.plans.cost` -- the expected-materialization cost model.
- :mod:`repro.plans.fragments` -- stage 1 of the heuristic: grouping
  variables by the exact set of queries they appear in.
- :mod:`repro.plans.set_cover` -- greedy and exact set cover.
- :mod:`repro.plans.varsets` -- interned variable-set bitmasks (the
  planner hot path's representation).
- :mod:`repro.plans.greedy_planner` -- the paper's two-stage heuristic.
- :mod:`repro.plans.baselines` -- no-sharing and fragment-only planners.
- :mod:`repro.plans.optimal` -- exhaustive optimal planning (small n).
- :mod:`repro.plans.reductions` -- the Theorem 2/3 set-cover reductions.
- :mod:`repro.plans.executor` -- runs a plan on live bids each round.
- :mod:`repro.plans.columnar_exec` -- vectorized fragment-level
  execution over a columnar store (no plan DAG).
"""

from repro.plans.baselines import fragment_only_plan, no_sharing_plan
from repro.plans.columnar_exec import (
    ColumnarExecResult,
    ColumnarFragmentExecutor,
)
from repro.plans.cost import expected_plan_cost, node_materialization_probability
from repro.plans.dag import Plan, PlanNode
from repro.plans.executor import ExecutionResult, PlanExecutor
from repro.plans.fragments import Fragment, identify_fragments
from repro.plans.greedy_planner import GreedyPlannerStats, greedy_shared_plan
from repro.plans.instance import AggregateQuery, SharedAggregationInstance
from repro.plans.optimal import optimal_plan
from repro.plans.set_cover import exact_min_set_cover, greedy_set_cover
from repro.plans.varsets import SubsetIndex, VarSetInterner

__all__ = [
    "AggregateQuery",
    "ColumnarExecResult",
    "ColumnarFragmentExecutor",
    "ExecutionResult",
    "Fragment",
    "GreedyPlannerStats",
    "Plan",
    "PlanExecutor",
    "PlanNode",
    "SharedAggregationInstance",
    "SubsetIndex",
    "VarSetInterner",
    "exact_min_set_cover",
    "expected_plan_cost",
    "fragment_only_plan",
    "greedy_set_cover",
    "greedy_shared_plan",
    "identify_fragments",
    "no_sharing_plan",
    "node_materialization_probability",
    "optimal_plan",
]
