"""The shared-aggregation plan DAG.

A plan for a set of ``⊕``-expressions is a DAG in which (Section II-C):

1. every node has in-degree 0 or 2 (edges point operand -> operator);
2. in-degree-0 nodes are labeled with variables;
3. an in-degree-2 node is labeled with the aggregation of its operands;
4. every query expression is A-equivalent to some node's label.

Because the top-k operator is a semilattice (Lemma 1), a node's label is
fully captured by its *variable set*; :class:`PlanNode` therefore stores
the frozenset of variables below it instead of a syntax tree.

The *total cost* of a plan is its number of internal nodes; the *extra
cost* is total cost minus the base cost ``|E|``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Hashable, Iterable, List, Mapping, Optional, Set, Tuple

from repro.errors import InvalidPlanError
from repro.plans.instance import AggregateQuery, SharedAggregationInstance
from repro.plans.varsets import VarSetInterner

__all__ = ["PlanNode", "Plan"]

Variable = Hashable
NodeId = int


@dataclass(frozen=True)
class PlanNode:
    """One node of a plan DAG.

    Attributes:
        node_id: Dense integer id within the owning plan.
        varset: The set of variables aggregated below this node -- the
            node's label up to A-equivalence (Lemma 1).
        left: Operand node id, or ``None`` for a leaf.
        right: Operand node id, or ``None`` for a leaf.
    """

    node_id: NodeId
    varset: FrozenSet[Variable]
    left: Optional[NodeId] = None
    right: Optional[NodeId] = None

    @property
    def is_leaf(self) -> bool:
        """Whether the node is an in-degree-0 variable node."""
        return self.left is None

    @property
    def variable(self) -> Variable:
        """The variable labeling a leaf node."""
        if not self.is_leaf:
            raise InvalidPlanError(f"node {self.node_id} is not a leaf")
        (var,) = self.varset
        return var


class Plan:
    """A mutable-under-construction, validated shared-aggregation plan.

    Construction protocol: create with the instance, which seeds one leaf
    per variable; call :meth:`add_internal` to aggregate two existing
    nodes; a node whose varset equals a query's variable set automatically
    *answers* that query.  :meth:`validate` checks the Section II-C rules
    and that every query is answered.

    Attributes:
        instance: The problem instance the plan is for.
        interner: The plan's :class:`VarSetInterner`; every node's varset
            is mirrored as an int bitmask (:meth:`node_mask`) so planners
            can run set algebra on machine words while the public API
            keeps speaking frozensets.
    """

    def __init__(self, instance: SharedAggregationInstance) -> None:
        self.instance = instance
        self.interner = VarSetInterner(instance.variables)
        self._nodes: List[PlanNode] = []
        self._masks: List[int] = []
        self._by_varset: Dict[FrozenSet[Variable], NodeId] = {}
        self._by_mask: Dict[int, NodeId] = {}
        self._leaf_of: Dict[Variable, NodeId] = {}
        self._query_assignment: Dict[str, NodeId] = {}
        # The interner already holds the repr-sorted variable order.
        for index, variable in enumerate(self.interner.variables):
            node = PlanNode(len(self._nodes), frozenset({variable}))
            self._nodes.append(node)
            self._masks.append(1 << index)
            self._by_varset[node.varset] = node.node_id
            self._by_mask[1 << index] = node.node_id
            self._leaf_of[variable] = node.node_id

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_internal(
        self, left: NodeId, right: NodeId, reuse: bool = True
    ) -> NodeId:
        """Aggregate two existing nodes; returns the new node's id.

        When ``reuse`` is true (default) and a node with the resulting
        variable set already exists, that node's id is returned and
        nothing is added -- a good plan never holds two A-equivalent
        internal nodes, since duplicating one could only raise cost.
        Baseline planners pass ``reuse=False`` to model deliberately
        unshared computation (the plan definition permits duplicate
        labels; they are just wasteful).

        Raises:
            InvalidPlanError: If either operand id is unknown or the two
                operands are the same node (``v ⊕ v`` is ``v`` by
                idempotence and never needs a node).
        """
        if left == right:
            raise InvalidPlanError("a node cannot aggregate itself with itself")
        left_node = self.node(left)
        right_node = self.node(right)
        mask = self._masks[left] | self._masks[right]
        if reuse:
            # The mask mirror makes the reuse probe one int hash instead
            # of hashing a freshly-built frozenset.
            existing = self._by_mask.get(mask)
            if existing is not None:
                return existing
        varset = left_node.varset | right_node.varset
        node = PlanNode(len(self._nodes), varset, left, right)
        self._nodes.append(node)
        self._masks.append(mask)
        # First-created node wins the varset index so query lookups are
        # deterministic even when duplicates are forced.
        self._by_varset.setdefault(varset, node.node_id)
        self._by_mask.setdefault(mask, node.node_id)
        return node.node_id

    def add_chain(self, operands: Iterable[NodeId], reuse: bool = True) -> NodeId:
        """Aggregate several nodes left-to-right; returns the final node.

        With ``reuse`` true, intermediate unions reuse existing nodes when
        their variable sets already exist in the plan.
        """
        ids = list(operands)
        if not ids:
            raise InvalidPlanError("cannot aggregate an empty operand list")
        acc = ids[0]
        for nid in ids[1:]:
            acc = self.add_internal(acc, nid, reuse=reuse)
        return acc

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def node(self, node_id: NodeId) -> PlanNode:
        """Node by id."""
        try:
            return self._nodes[node_id]
        except IndexError:
            raise InvalidPlanError(f"unknown node id {node_id}") from None

    def node_for_varset(self, varset: FrozenSet[Variable]) -> Optional[NodeId]:
        """Id of the node labeled with exactly ``varset``, if any."""
        return self._by_varset.get(frozenset(varset))

    def node_mask(self, node_id: NodeId) -> int:
        """The node's varset as an interned bitmask."""
        self.node(node_id)
        return self._masks[node_id]

    def node_for_mask(self, mask: int) -> Optional[NodeId]:
        """Id of the node whose varset interns to exactly ``mask``."""
        return self._by_mask.get(mask)

    def leaf_of(self, variable: Variable) -> NodeId:
        """Id of the leaf for ``variable``."""
        try:
            return self._leaf_of[variable]
        except KeyError:
            raise InvalidPlanError(f"unknown variable {variable!r}") from None

    @property
    def nodes(self) -> Tuple[PlanNode, ...]:
        """All nodes, in creation order (children precede parents)."""
        return tuple(self._nodes)

    def internal_nodes(self) -> List[PlanNode]:
        """All operator (in-degree-2) nodes."""
        return [n for n in self._nodes if not n.is_leaf]

    def assign_query(self, name: str, node_id: NodeId) -> None:
        """Pin a query to a specific node (overriding varset lookup).

        Baseline planners use this when duplicate-label nodes exist and a
        query must be answered by its *own* chain's root rather than an
        earlier node that happens to carry the same label.

        Raises:
            InvalidPlanError: If the node's varset does not equal the
                query's variable set (rule 4 would be violated).
        """
        query = self.instance.query_by_name(name)
        node = self.node(node_id)
        if node.varset != query.variables:
            raise InvalidPlanError(
                f"cannot assign query {name!r} to node {node_id}: varsets "
                "differ"
            )
        self._query_assignment[name] = node_id

    def query_node(self, query: AggregateQuery) -> Optional[NodeId]:
        """The node answering ``query`` (exact varset match), if present."""
        assigned = self._query_assignment.get(query.name)
        if assigned is not None:
            return assigned
        if len(query.variables) == 1:
            (var,) = query.variables
            return self._leaf_of.get(var)
        return self._by_varset.get(query.variables)

    def answered_queries(self) -> List[AggregateQuery]:
        """The instance queries currently answered by some node."""
        return [
            q
            for q in self.instance.queries
            if self.query_node(q) is not None
        ]

    def missing_queries(self) -> List[AggregateQuery]:
        """The instance queries not yet answered by any node."""
        return [q for q in self.instance.queries if self.query_node(q) is None]

    # ------------------------------------------------------------------
    # cost-model support
    # ------------------------------------------------------------------
    def downstream_queries(self) -> Dict[NodeId, Set[str]]:
        """For each node ``v``, the queries ``q`` with ``v ⇝ q``.

        A node is *used for* query ``q`` if there is a directed path from
        the node to ``q``'s query node; the query node itself counts.
        Computed by walking down from each query node through operand
        edges.
        """
        downstream: Dict[NodeId, Set[str]] = {n.node_id: set() for n in self._nodes}
        for query in self.instance.queries + self.instance.trivial_queries:
            root = self.query_node(query)
            if root is None:
                continue
            stack = [root]
            seen: Set[NodeId] = set()
            while stack:
                nid = stack.pop()
                if nid in seen:
                    continue
                seen.add(nid)
                downstream[nid].add(query.name)
                node = self._nodes[nid]
                if not node.is_leaf:
                    assert node.left is not None and node.right is not None
                    stack.append(node.left)
                    stack.append(node.right)
        return downstream

    @property
    def total_cost(self) -> int:
        """Number of internal nodes (the paper's total plan cost)."""
        return sum(1 for n in self._nodes if not n.is_leaf)

    @property
    def extra_cost(self) -> int:
        """Total cost minus the base cost ``|E|``."""
        return self.total_cost - self.instance.base_cost

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self, require_complete: bool = True) -> None:
        """Check the structural plan rules of Section II-C.

        Args:
            require_complete: Also require rule 4 -- every query answered.

        Raises:
            InvalidPlanError: On any violation: a leaf labeled with a
                non-singleton set, an internal node whose varset is not
                the union of its operands', an operand edge referencing a
                later node (cycle), or (if ``require_complete``) an
                unanswered query.
        """
        for node in self._nodes:
            if node.is_leaf:
                if len(node.varset) != 1:
                    raise InvalidPlanError(
                        f"leaf {node.node_id} must be labeled with one "
                        f"variable, got {set(node.varset)!r}"
                    )
                if node.right is not None:
                    raise InvalidPlanError(
                        f"node {node.node_id} has in-degree 1; plans allow "
                        "only in-degree 0 or 2"
                    )
                continue
            assert node.left is not None
            if node.right is None:
                raise InvalidPlanError(
                    f"node {node.node_id} has in-degree 1; plans allow only "
                    "in-degree 0 or 2"
                )
            if node.left >= node.node_id or node.right >= node.node_id:
                raise InvalidPlanError(
                    f"node {node.node_id} references a non-earlier node; "
                    "plans must be acyclic"
                )
            expected = (
                self._nodes[node.left].varset | self._nodes[node.right].varset
            )
            if node.varset != expected:
                raise InvalidPlanError(
                    f"node {node.node_id} is labeled {set(node.varset)!r} but "
                    f"its operands union to {set(expected)!r}"
                )
        if require_complete:
            missing = self.missing_queries()
            if missing:
                raise InvalidPlanError(
                    "plan does not answer queries: "
                    + ", ".join(q.name for q in missing)
                )

    def __repr__(self) -> str:
        return (
            f"Plan({len(self._nodes)} nodes, {self.total_cost} internal, "
            f"{len(self.answered_queries())}/{len(self.instance.queries)} "
            "queries answered)"
        )
