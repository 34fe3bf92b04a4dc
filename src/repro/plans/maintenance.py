"""Incremental maintenance of shared plans as the market drifts.

Plans are computed offline (Section II-B), but the inputs drift:
advertisers add and drop bid phrases, enter and leave the market.  Full
replanning per change is exactly what the latency argument rules out, so
:class:`PlanMaintainer` keeps a plan aligned with the current
phrase-interest map using cheap structural repairs and re-plans only
when enough drift has accumulated:

- *Variable added to a query*: the query node's varset grows; the old
  node no longer answers it.  Repair: aggregate the old query node with
  the new leaf (one extra operator).
- *Variable removed from a query*: subsets cannot be repaired by adding
  operators (the stale node over-aggregates), so the query is rebuilt
  from the greedy cover of the remaining nodes.
- The maintainer tracks *drift* -- repairs since the last full plan --
  and triggers a fresh greedy plan when drift exceeds a threshold,
  because accumulated patches erode sharing quality.

The maintained plan is always exact: after every operation the plan
validates and answers every live query.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Hashable, List, Optional, Set

from repro.errors import InvalidPlanError, PlanConstructionError
from repro.plans.cost import expected_plan_cost
from repro.plans.dag import Plan
from repro.plans.greedy_planner import greedy_shared_plan
from repro.plans.instance import AggregateQuery, SharedAggregationInstance
from repro.plans.set_cover import greedy_set_cover

__all__ = ["PlanMaintainer"]

Variable = Hashable


class PlanMaintainer:
    """Keeps a shared plan consistent with a drifting interest map.

    Args:
        interests: Initial ``{phrase: set of advertiser ids}``.
        search_rates: ``{phrase: sr}`` (missing phrases default to 1.0).
        replan_after: Full greedy replan once this many repairs have
            accumulated (the drift budget).

    Attributes:
        plan: The current valid plan.
        repairs_since_replan: Drift counter.
        replans: Total full replans performed.
    """

    def __init__(
        self,
        interests: Dict[str, Set[Variable]],
        search_rates: Optional[Dict[str, float]] = None,
        replan_after: int = 16,
    ) -> None:
        if replan_after <= 0:
            raise PlanConstructionError("replan_after must be positive")
        self._interests: Dict[str, Set[Variable]] = {
            phrase: set(ids) for phrase, ids in interests.items()
        }
        self._rates: Dict[str, float] = dict(search_rates or {})
        self.replan_after = replan_after
        self.repairs_since_replan = 0
        self.replans = 0
        self._listeners: List[Callable[[Plan], None]] = []
        self.plan = self._full_plan()

    # ------------------------------------------------------------------
    # plan-change notification
    # ------------------------------------------------------------------
    def subscribe(self, listener: Callable[[Plan], None]) -> None:
        """Register a callback invoked with every new plan.

        Called after each repair or full replan, once the fresh plan has
        validated.  A caller holding something built from the old plan
        rebuilds it here, e.g. a
        :class:`repro.plans.executor.PlanExecutor` over the new plan.

        Listeners fire in subscription order; exceptions propagate to
        the mutation that triggered the change.
        """
        self._listeners.append(listener)

    def _set_plan(self, plan: Plan) -> None:
        self.plan = plan
        for listener in self._listeners:
            listener(plan)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def interests(self) -> Dict[str, FrozenSet[Variable]]:
        """The current phrase-interest map (copies)."""
        return {
            phrase: frozenset(ids) for phrase, ids in self._interests.items()
        }

    def expected_cost(self) -> float:
        """Expected per-round cost of the current plan."""
        return expected_plan_cost(self.plan)

    # ------------------------------------------------------------------
    # mutations
    # ------------------------------------------------------------------
    def add_interest(self, phrase: str, advertiser: Variable) -> None:
        """Advertiser starts bidding on ``phrase``."""
        ids = self._interests.get(phrase)
        if ids is None:
            raise InvalidPlanError(f"unknown phrase {phrase!r}")
        if advertiser in ids:
            return
        ids.add(advertiser)
        self._after_change()

    def remove_interest(self, phrase: str, advertiser: Variable) -> None:
        """Advertiser stops bidding on ``phrase``.

        Raises:
            InvalidPlanError: If the phrase would be left with no
                advertisers (drop the phrase instead).
        """
        ids = self._interests.get(phrase)
        if ids is None:
            raise InvalidPlanError(f"unknown phrase {phrase!r}")
        if advertiser not in ids:
            return
        if len(ids) == 1:
            raise InvalidPlanError(
                f"removing the last advertiser of {phrase!r}; use drop_phrase"
            )
        ids.remove(advertiser)
        self._after_change()

    def add_phrase(
        self,
        phrase: str,
        advertisers: Set[Variable],
        search_rate: float = 1.0,
    ) -> None:
        """Register a brand-new phrase."""
        if phrase in self._interests:
            raise InvalidPlanError(f"phrase {phrase!r} already exists")
        if not advertisers:
            raise InvalidPlanError("a phrase needs at least one advertiser")
        self._interests[phrase] = set(advertisers)
        self._rates[phrase] = search_rate
        self._after_change()

    def drop_phrase(self, phrase: str) -> None:
        """Remove a phrase entirely."""
        if phrase not in self._interests:
            raise InvalidPlanError(f"unknown phrase {phrase!r}")
        del self._interests[phrase]
        self._rates.pop(phrase, None)
        self._after_change()

    def add_advertiser(
        self, advertiser_id: Variable, phrases: Set[str]
    ) -> None:
        """A new advertiser enters bidding on ``phrases``: it joins each
        phrase that exists, and each one that does not is created with
        it as the sole member (at search rate 1.0)."""
        for phrase in sorted(phrases):
            if phrase in self._interests:
                self.add_interest(phrase, advertiser_id)
            else:
                self.add_phrase(phrase, {advertiser_id})

    def remove_advertiser(self, advertiser_id: Variable) -> None:
        """An advertiser leaves the market: it stops bidding on every
        phrase, and each phrase it was the sole member of is dropped."""
        member_of = sorted(
            phrase
            for phrase, ids in self._interests.items()
            if advertiser_id in ids
        )
        for phrase in member_of:
            if len(self._interests[phrase]) == 1:
                self.drop_phrase(phrase)
            else:
                self.remove_interest(phrase, advertiser_id)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _instance(self) -> SharedAggregationInstance:
        return SharedAggregationInstance(
            AggregateQuery(
                phrase, ids, float(self._rates.get(phrase, 1.0))
            )
            for phrase, ids in self._interests.items()
        )

    def _full_plan(self) -> Plan:
        instance = self._instance()
        strategy = "cover" if len(instance.variables) > 64 else "full"
        return greedy_shared_plan(instance, pair_strategy=strategy)

    def _after_change(self) -> None:
        self.repairs_since_replan += 1
        if self.repairs_since_replan >= self.replan_after:
            self._set_plan(self._full_plan())
            self.repairs_since_replan = 0
            self.replans += 1
            return
        self._repair()

    def _repair(self) -> None:
        """Rebuild against the new instance, reusing old structure.

        The fresh instance seeds a new plan; every internal node of the
        old plan whose operands still exist is replayed (cheap -- varset
        dedup keeps it linear in old plan size), then missing queries are
        completed from greedy covers over the carried-over nodes.  This
        preserves the old plan's sharing where it is still useful and
        adds only the minimal patching operators.
        """
        instance = self._instance()
        fresh = Plan(instance)
        carried: Dict[int, int] = {}
        live_variables = instance.variables
        for node in self.plan.nodes:
            if node.is_leaf:
                if node.variable in live_variables:
                    carried[node.node_id] = fresh.leaf_of(node.variable)
                continue
            assert node.left is not None and node.right is not None
            left = carried.get(node.left)
            right = carried.get(node.right)
            if left is None or right is None or left == right:
                continue
            carried[node.node_id] = fresh.add_internal(left, right)
        for query in fresh.missing_queries():
            candidates = list(
                dict.fromkeys(n.varset for n in fresh.nodes)
            )
            usable = [c for c in candidates if c <= query.variables]
            cover = greedy_set_cover(query.variables, usable)
            node_ids = [fresh.node_for_varset(c) for c in cover]
            fresh.add_chain([n for n in node_ids if n is not None])
        fresh.validate()
        self._set_plan(fresh)
