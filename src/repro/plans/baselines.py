"""Baseline planners used as comparison points in the evaluation.

- :func:`no_sharing_plan` -- each query is computed from scratch by its
  own chain of aggregations, ``|X_q| - 1`` operator nodes per query, none
  shared.  Its expected cost is exactly
  ``sum_q sr_q * (|X_q| - 1)`` -- the unshared curve of Fig. 4.
- :func:`fragment_only_plan` -- stage 1 of the heuristic alone: aggregate
  within fragments, then combine each query's fragments with per-query
  (unshared) chains.  Isolates how much of the heuristic's win comes from
  fragments versus the greedy cross-fragment sharing.
- :func:`cse_plan` -- sharing by *syntactic* common subexpressions only,
  the best possible without exploiting associativity/commutativity
  (the paper's "rather limited manner" of sharing): queries are built as
  right-deep chains over name-sorted variables and every chain prefix
  with an identical variable *sequence* is reused.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Tuple

from repro.plans.dag import Plan
from repro.plans.fragments import identify_fragments
from repro.plans.instance import SharedAggregationInstance

__all__ = ["no_sharing_plan", "fragment_only_plan", "cse_plan"]

Variable = Hashable


def no_sharing_plan(instance: SharedAggregationInstance) -> Plan:
    """One independent aggregation chain per query; nothing shared.

    Duplicate-label nodes are deliberately created (``reuse=False``) so
    the plan faithfully models a system resolving every auction
    separately.
    """
    plan = Plan(instance)
    interner = plan.interner
    for query in instance.queries:
        # interner.members returns repr-sorted order from the cached
        # bitmask -- the same order the repr sort produced, without
        # re-sorting per query.
        ordered = interner.members(interner.mask_of(query.variables))
        leaves = [plan.leaf_of(v) for v in ordered]
        acc = leaves[0]
        for leaf in leaves[1:]:
            acc = plan.add_internal(acc, leaf, reuse=False)
        plan.assign_query(query.name, acc)
    plan.validate()
    return plan


def fragment_only_plan(instance: SharedAggregationInstance) -> Plan:
    """Aggregate within fragments, then chain fragments per query.

    Fragment-internal aggregation is shared (each fragment computed
    once); the cross-fragment combination is per-query and unshared,
    matching the "some basic multiquery optimization" the paper credits
    to stage 1 alone.
    """
    plan = Plan(instance)
    interner = plan.interner
    roots_of: Dict[str, List[int]] = {q.name: [] for q in instance.queries}
    for fragment in identify_fragments(instance):
        ordered = interner.members(interner.mask_of(fragment.variables))
        leaves = [plan.leaf_of(v) for v in ordered]
        acc = leaves[0]
        for leaf in leaves[1:]:
            acc = plan.add_internal(acc, leaf)
        for name in fragment.query_names:
            roots_of[name].append(acc)

    for query in instance.queries:
        roots = roots_of[query.name]
        if len(roots) == 1:
            plan.assign_query(query.name, roots[0])
            continue
        acc = roots[0]
        for root in roots[1:]:
            acc = plan.add_internal(acc, root, reuse=False)
        plan.assign_query(query.name, acc)
    plan.validate()
    return plan


def cse_plan(instance: SharedAggregationInstance) -> Plan:
    """Common-subexpression sharing only (no algebraic rewriting).

    Each query is the right-deep chain over its name-sorted variables;
    two chains share exactly their common *suffix* sub-chains (identical
    subexpressions).  This is what a conventional multi-query optimizer
    achieves without knowing ``⊕`` is associative/commutative, and it is
    the optimal PTIME strategy for the non-associative rows of Fig. 5.
    """
    plan = Plan(instance)
    interner = plan.interner
    suffix_node: Dict[Tuple[Variable, ...], int] = {}
    for query in instance.queries:
        ordered = interner.members(interner.mask_of(query.variables))
        # Build from the right so shared suffixes are created once.
        acc = plan.leaf_of(ordered[-1])
        suffix: Tuple[Variable, ...] = (ordered[-1],)
        for variable in reversed(ordered[:-1]):
            suffix = (variable, *suffix)
            cached = suffix_node.get(suffix)
            if cached is None:
                acc = plan.add_internal(plan.leaf_of(variable), acc, reuse=False)
                suffix_node[suffix] = acc
            else:
                acc = cached
        plan.assign_query(query.name, acc)
    plan.validate()
    return plan
