"""Shared merge-sort plans and the greedy bottom-up builder.

Section III-C: start from one leaf per advertiser and successively merge
the pair of nodes with the largest expected savings, where nodes ``u``
and ``v`` may merge into ``w`` only if

- ``Q_u ∩ Q_v ≠ ∅`` -- some phrase benefits from the merged run,
- ``I_u ∩ I_v = ∅`` -- merge-sort runs must be disjoint, and
- ``|I_u| = |I_v|`` -- the merge-sort tree stays balanced,

with ``Q_w = Q_u ∩ Q_v`` and ``I_w = I_u ∪ I_v``.  The expected savings
of creating ``w`` is ``|I_w| * E[occurring phrases of Q_w beyond the
first]`` (:func:`repro.sharedsort.cost.expected_savings_of_merge`).

One refinement makes the DAG semantics precise: a node may acquire
several parents (it is a shareable stream), but for any single phrase
``q`` the maximal nodes carrying ``q`` must partition ``I_q`` -- so each
merge *consumes* the shared phrases from its operands.  We track each
node's *available* phrase set (its ``Q`` minus phrases claimed by earlier
parents) and intersect availabilities when merging.

Greedy merging stops when no pair offers positive savings; what remains
per phrase -- merging that phrase's maximal nodes into a single sorted
stream -- is per-phrase assembly work performed by
:meth:`SharedSortPlan.instantiate`, counted in the cost model with that
phrase's rate alone.

Two interchangeable engines drive the merge loop.  ``planner="naive"``
is the paper's literal procedure: every round, rescan every same-size
node pair and recompute its expected savings -- O(rounds * n^2) savings
evaluations.  ``planner="lazy"`` (the default) keeps a versioned
max-heap of candidate pairs over interned phrase bitmasks
(:class:`repro.plans.varsets.VarSetInterner`): a pair's savings can only
*shrink* (merges consume availability, and ``E[max(0, N-1)]`` is
monotone in the phrase set), so a heap entry is always an upper bound on
the pair's current savings, and only entries whose operands changed
since they were pushed are rescored -- exactly, with the same
``(saving, -u, -v)`` tie-break, so both engines build **byte-identical**
plans and only the work counters differ.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from repro.errors import InvalidPlanError, PlanConstructionError
from repro.instrument import NULL, Collector, names as metric_names
from repro.plans.varsets import VarSetInterner, iter_bit_ids
from repro.sharedsort.cost import (
    expected_full_sort_cost,
    expected_savings_of_merge,
)
from repro.sharedsort.operators import LeafSource, MergeOperator, SortStream

__all__ = [
    "SortPlanNode",
    "SharedSortPlan",
    "SortBuilderStats",
    "build_shared_sort_plan",
    "LiveSharedSort",
]


@dataclass(frozen=True)
class SortPlanNode:
    """A node of the shared merge-sort plan.

    Attributes:
        node_id: Dense id within the plan.
        advertisers: ``I_v`` -- advertiser ids below the node.
        phrases: ``Q_v`` -- phrases whose merge-sort tree the node is part
            of (for internal nodes this is the intersection assigned at
            creation; for leaves, all phrases mentioning the advertiser).
        left: Child node id, or ``None`` for a leaf.
        right: Child node id, or ``None`` for a leaf.
    """

    node_id: int
    advertisers: FrozenSet[int]
    phrases: FrozenSet[str]
    left: Optional[int] = None
    right: Optional[int] = None

    @property
    def is_leaf(self) -> bool:
        """Whether this node is a single-advertiser leaf."""
        return self.left is None


class SharedSortPlan:
    """A built shared merge-sort plan over a set of bid phrases.

    Attributes:
        phrase_advertisers: ``{phrase: I_q}``.
        search_rates: ``{phrase: sr_q}``.
        nodes: All plan nodes, children before parents.
        phrase_roots: For each phrase, the ids of its maximal nodes (the
            runs that per-phrase assembly merges), largest first.
    """

    def __init__(
        self,
        phrase_advertisers: Mapping[str, FrozenSet[int]],
        search_rates: Mapping[str, float],
        nodes: Sequence[SortPlanNode],
        phrase_roots: Mapping[str, Sequence[int]],
    ) -> None:
        self.phrase_advertisers = dict(phrase_advertisers)
        self.search_rates = dict(search_rates)
        self.nodes = tuple(nodes)
        self.phrase_roots = {k: tuple(v) for k, v in phrase_roots.items()}
        self._validate()

    def _validate(self) -> None:
        for phrase, roots in self.phrase_roots.items():
            covered: set[int] = set()
            for node_id in roots:
                node = self.nodes[node_id]
                if phrase not in node.phrases:
                    raise InvalidPlanError(
                        f"node {node_id} is a root of {phrase!r} but does "
                        "not carry that phrase"
                    )
                if covered & node.advertisers:
                    raise InvalidPlanError(
                        f"roots of phrase {phrase!r} overlap on advertisers"
                    )
                covered |= node.advertisers
            if covered != set(self.phrase_advertisers[phrase]):
                raise InvalidPlanError(
                    f"roots of phrase {phrase!r} do not partition I_q"
                )

    def internal_nodes(self) -> List[SortPlanNode]:
        """The shared merge operators (non-leaf nodes)."""
        return [n for n in self.nodes if not n.is_leaf]

    def shared_expected_cost(self) -> float:
        """Expected full-sort cost of the shared operators only."""
        return expected_full_sort_cost(
            (
                len(node.advertisers),
                [self.search_rates[q] for q in node.phrases],
            )
            for node in self.internal_nodes()
        )

    def assembly_expected_cost(self) -> float:
        """Expected full-sort cost of the per-phrase assembly operators.

        The runs for phrase ``q`` are merged Huffman-style (two smallest
        first), which minimizes the sum of intermediate merge sizes; each
        assembly operator serves only ``q``.
        """
        total = 0.0
        for phrase, roots in self.phrase_roots.items():
            if len(roots) <= 1:
                continue
            sizes = [len(self.nodes[node_id].advertisers) for node_id in roots]
            rate = self.search_rates[phrase]
            total += rate * _huffman_merge_cost(sizes)
        return total

    def expected_cost(self) -> float:
        """Total expected full-sort cost: shared plus assembly."""
        return self.shared_expected_cost() + self.assembly_expected_cost()

    def instantiate(
        self, bids: Mapping[int, float], collector: Collector = NULL
    ) -> "LiveSharedSort":
        """Create the live operator network for one round's bids.

        Args:
            bids: ``{advertiser_id: b_i}`` covering every leaf.
            collector: Threaded into every operator; ``sort.node_pulls``
                is keyed by plan node id (assembly operators by
                ``("assembly", phrase, depth)``).
        """
        return LiveSharedSort(self, bids, collector)


class LiveSharedSort:
    """A shared-sort plan instantiated with concrete bids.

    Construct via :meth:`SharedSortPlan.instantiate`.  Streams are built
    lazily per phrase; shared operators are created once and reused by
    every phrase that touches them, so their caches carry work across
    phrases exactly as Section III-B describes.
    """

    def __init__(
        self,
        plan: SharedSortPlan,
        bids: Mapping[int, float],
        collector: Collector = NULL,
    ) -> None:
        self.plan = plan
        self._bids = dict(bids)
        self.collector = collector
        self._streams: Dict[int, SortStream] = {}
        self._phrase_streams: Dict[str, SortStream] = {}

    def _stream_for_node(self, node_id: int) -> SortStream:
        stream = self._streams.get(node_id)
        if stream is not None:
            return stream
        node = self.plan.nodes[node_id]
        if node.is_leaf:
            (advertiser_id,) = node.advertisers
            try:
                bid = self._bids[advertiser_id]
            except KeyError:
                raise InvalidPlanError(
                    f"no bid provided for advertiser {advertiser_id}"
                ) from None
            stream = LeafSource(
                bid, advertiser_id, self.collector, label=node_id
            )
        else:
            assert node.left is not None and node.right is not None
            stream = MergeOperator(
                self._stream_for_node(node.left),
                self._stream_for_node(node.right),
                self.collector,
                label=node_id,
            )
        self._streams[node_id] = stream
        return stream

    def stream_for_phrase(self, phrase: str) -> SortStream:
        """The descending-bid stream over ``I_q`` for one phrase."""
        cached = self._phrase_streams.get(phrase)
        if cached is not None:
            return cached
        try:
            roots = self.plan.phrase_roots[phrase]
        except KeyError:
            raise InvalidPlanError(f"unknown phrase {phrase!r}") from None
        # Huffman-style assembly: repeatedly merge the two smallest runs,
        # matching the cost model in assembly_expected_cost.  The sort
        # *must* run at the top of every iteration (a merged run can be
        # smaller than a remaining one, so the order is re-established
        # each step); sorting once more before the loop would be pure
        # waste -- the first iteration re-sorts on entry.
        runs = [self._stream_for_node(node_id) for node_id in roots]
        depth = 0
        while len(runs) > 1:
            runs.sort(key=lambda s: len(getattr(s, "advertiser_ids", ())))
            merged = MergeOperator(
                runs[0],
                runs[1],
                self.collector,
                label=("assembly", phrase, depth),
            )
            depth += 1
            runs = [merged] + runs[2:]
        stream = runs[0]
        self._phrase_streams[phrase] = stream
        return stream

    def _all_streams(self) -> List[SortStream]:
        """Every distinct stream touched so far (plan nodes + assembly)."""
        seen: Dict[int, SortStream] = {}
        for stream in self._streams.values():
            seen[id(stream)] = stream
        stack = list(self._phrase_streams.values())
        while stack:
            stream = stack.pop()
            if id(stream) in seen:
                continue
            seen[id(stream)] = stream
            if isinstance(stream, MergeOperator):
                stack.extend([stream.left, stream.right])
        return list(seen.values())

    def total_pulls(self) -> int:
        """Items produced by merge *operators* so far.

        This is the quantity the full-sort cost model bounds: one unit
        per item an operator emits, shared operators counted once (their
        caches serve every phrase).  Leaf reads are reported separately
        by :meth:`leaf_reads` -- they are sequential accesses to the bid
        store, not merge work.
        """
        return sum(
            s.pulls
            for s in self._all_streams()
            if isinstance(s, MergeOperator)
        )

    def leaf_reads(self) -> int:
        """Distinct advertiser bids read from the store so far."""
        return sum(
            s.pulls for s in self._all_streams() if isinstance(s, LeafSource)
        )


def _huffman_merge_cost(sizes: Sequence[int]) -> int:
    """Sum of intermediate merge sizes when merging runs Huffman-style."""
    import heapq

    heap = list(sizes)
    heapq.heapify(heap)
    total = 0
    while len(heap) > 1:
        a = heapq.heappop(heap)
        b = heapq.heappop(heap)
        total += a + b
        heapq.heappush(heap, a + b)
    return total


class SortBuilderStats:
    """Counters describing one shared-sort-plan build (for tests/benches).

    Attributes:
        merges: Shared merge nodes created.
        pairs_enumerated: Candidate pairs visited (before validity
            filtering) -- every same-size pair every merge round under
            ``planner="naive"``, only touched pairs under ``"lazy"``.
        savings_evaluated: :func:`expected_savings_of_merge` computations
            actually performed.  The naive engine recomputes every valid
            pair every round; the lazy engine evaluates only pushed or
            rescored pairs, so the ratio of the two is the tentpole's
            work reduction.
        savings_memo_hits: Lazy only: savings requests served from the
            per-``(size, phrase-mask)`` memo instead of recomputing.
        heap_pushes: Lazy only: entries pushed onto the pair heap.
        stale_rescored: Lazy only: popped entries whose operands had
            changed since the push (exact rescore, then re-push or drop).
    """

    def __init__(self) -> None:
        self.merges = 0
        self.pairs_enumerated = 0
        self.savings_evaluated = 0
        self.savings_memo_hits = 0
        self.heap_pushes = 0
        self.stale_rescored = 0

    def __repr__(self) -> str:
        return (
            f"SortBuilderStats(merges={self.merges}, "
            f"pairs_enumerated={self.pairs_enumerated}, "
            f"savings_evaluated={self.savings_evaluated}, "
            f"savings_memo_hits={self.savings_memo_hits}, "
            f"heap_pushes={self.heap_pushes}, "
            f"stale_rescored={self.stale_rescored})"
        )


def build_shared_sort_plan(
    phrase_advertisers: Mapping[str, Sequence[int]],
    search_rates: Mapping[str, float] | float = 1.0,
    planner: str = "lazy",
    stats: Optional[SortBuilderStats] = None,
    collector: Collector = NULL,
) -> SharedSortPlan:
    """Greedy bottom-up construction of a shared merge-sort plan.

    Args:
        phrase_advertisers: ``{phrase: I_q}``.
        search_rates: Per-phrase rates, or one rate for all phrases.
        planner: ``"lazy"`` (default) completes the merge loop with the
            versioned pair heap over interned phrase bitmasks; ``"naive"``
            is the paper's literal full rescan, kept as the differential
            oracle.  Both build byte-identical plans.
        stats: Optional :class:`SortBuilderStats` to fill in.
        collector: Receives ``sort.pairs_scored`` /
            ``sort.savings_memo_hits`` once per build.

    Returns:
        The built plan with per-phrase root lists.

    Raises:
        PlanConstructionError: On an empty instance or unknown planner.
    """
    if planner not in ("naive", "lazy"):
        raise PlanConstructionError(f"unknown sort planner {planner!r}")
    if not phrase_advertisers:
        raise PlanConstructionError("need at least one phrase")
    interest: Dict[str, FrozenSet[int]] = {
        phrase: frozenset(int(a) for a in ads)
        for phrase, ads in phrase_advertisers.items()
    }
    for phrase, ads in interest.items():
        if not ads:
            raise PlanConstructionError(f"phrase {phrase!r} has no advertisers")
    if isinstance(search_rates, Mapping):
        rates = {phrase: float(search_rates.get(phrase, 1.0)) for phrase in interest}
    else:
        rates = {phrase: float(search_rates) for phrase in interest}
    if stats is None:
        stats = SortBuilderStats()

    nodes: List[SortPlanNode] = []
    available: Dict[int, FrozenSet[str]] = {}
    all_advertisers = sorted({a for ads in interest.values() for a in ads})
    for advertiser_id in all_advertisers:
        phrases = frozenset(
            phrase for phrase, ads in interest.items() if advertiser_id in ads
        )
        node = SortPlanNode(
            len(nodes), frozenset({advertiser_id}), phrases
        )
        nodes.append(node)
        available[node.node_id] = phrases

    if planner == "naive":
        _complete_naive(nodes, available, rates, stats)
    else:
        _complete_lazy(nodes, available, rates, stats)
    collector.incr(metric_names.SORT_PAIRS_SCORED, stats.savings_evaluated)
    collector.incr(
        metric_names.SORT_SAVINGS_MEMO_HITS, stats.savings_memo_hits
    )

    # Per-phrase roots: maximal nodes carrying the phrase.  A node carries
    # phrase q for assembly purposes iff q was in its availability at some
    # point and was not consumed by a parent -- i.e. q remains in
    # `available[node]` now.
    phrase_roots: Dict[str, List[int]] = {phrase: [] for phrase in interest}
    for node_id, avail in available.items():
        for phrase in avail:
            phrase_roots[phrase].append(node_id)
    for phrase in phrase_roots:
        phrase_roots[phrase].sort(
            key=lambda nid: (-len(nodes[nid].advertisers), nid)
        )

    # Node.phrases for internal nodes is the consumed intersection; for
    # root listing we used availability, which together cover Q_v.
    return SharedSortPlan(interest, rates, nodes, phrase_roots)


def _complete_naive(
    nodes: List[SortPlanNode],
    available: Dict[int, FrozenSet[str]],
    rates: Dict[str, float],
    stats: SortBuilderStats,
) -> None:
    """The paper's literal merge loop: full same-size rescan per round."""
    while True:
        best: Optional[Tuple[float, int, int, FrozenSet[str]]] = None
        active = [nid for nid, avail in available.items() if avail]
        by_size: Dict[int, List[int]] = {}
        for nid in active:
            by_size.setdefault(len(nodes[nid].advertisers), []).append(nid)
        for size, group in by_size.items():
            group.sort()
            for index, u in enumerate(group):
                for v in group[index + 1 :]:
                    stats.pairs_enumerated += 1
                    shared = available[u] & available[v]
                    if not shared:
                        continue
                    if nodes[u].advertisers & nodes[v].advertisers:
                        continue
                    stats.savings_evaluated += 1
                    saving = expected_savings_of_merge(
                        2 * size, [rates[q] for q in sorted(shared)]
                    )
                    key = (saving, -u, -v)
                    if best is None or key > (best[0], -best[1], -best[2]):
                        best = (saving, u, v, shared)
        if best is None or best[0] <= 0.0:
            break
        _, u, v, shared = best
        node = SortPlanNode(
            len(nodes),
            nodes[u].advertisers | nodes[v].advertisers,
            shared,
            left=u,
            right=v,
        )
        nodes.append(node)
        stats.merges += 1
        available[node.node_id] = shared
        available[u] = available[u] - shared
        available[v] = available[v] - shared


def _complete_lazy(
    nodes: List[SortPlanNode],
    available: Dict[int, FrozenSet[str]],
    rates: Dict[str, float],
    stats: SortBuilderStats,
) -> None:
    """Lazy merge loop: versioned pair heap over interned phrase masks.

    Exactness argument (mirrors the CELF-style planner of
    ``repro.plans.greedy_planner``, but with a *stronger* staleness
    guarantee): a pair's expected savings depends only on the operand
    sizes (fixed) and the intersection of their availabilities, and a
    merge only ever *removes* phrases from availability, so

    - an entry whose operand versions still match was pushed with the
      pair's exact current savings, and
    - an entry whose operand changed carries an **upper bound** on the
      current savings (``E[max(0, N-1)]`` is monotone in the phrase
      set), so the true maximum can never hide below the heap top.

    Popping therefore yields the exact global argmax under the same
    ``(saving, -u, -v)`` order the naive rescan maximizes: stale entries
    are rescored exactly and re-pushed (or dropped when the pair lost
    its shared phrases), and the first *current* entry to surface wins.
    Savings are computed from rates visited in ascending interned-id
    order, which ``key=str`` interning makes exactly ``sorted(shared)``
    -- the naive engine's float summation order -- so plans are
    byte-identical, not merely equivalent.
    """
    interner = VarSetInterner(rates, key=str)
    rate_of_id = [rates[phrase] for phrase in interner.variables]
    avail_mask: Dict[int, int] = {
        nid: interner.mask_of(avail) for nid, avail in available.items()
    }
    # Advertiser sets as private bitmasks (ids are opaque; only
    # disjointness is ever asked).
    adv_bit: Dict[int, int] = {}
    adv_mask: Dict[int, int] = {}
    for nid, node in enumerate(nodes):
        mask = 0
        for advertiser in node.advertisers:
            bit = adv_bit.get(advertiser)
            if bit is None:
                bit = adv_bit[advertiser] = 1 << len(adv_bit)
            mask |= bit
        adv_mask[nid] = mask
    version: Dict[int, int] = {nid: 0 for nid in avail_mask}

    savings_memo: Dict[Tuple[int, int], float] = {}

    def saving_of(size: int, shared_mask: int) -> float:
        key = (size, shared_mask)
        cached = savings_memo.get(key)
        if cached is not None:
            stats.savings_memo_hits += 1
            return cached
        stats.savings_evaluated += 1
        value = expected_savings_of_merge(
            2 * size, [rate_of_id[i] for i in iter_bit_ids(shared_mask)]
        )
        savings_memo[key] = value
        return value

    # Heap entries: (-saving, u, v, version_u, version_v); heapq's min
    # order realizes the naive max order (max saving, then min u, min v).
    heap: List[Tuple[float, int, int, int, int]] = []

    def push_pair(u: int, v: int, size: int) -> None:
        stats.pairs_enumerated += 1
        shared_mask = avail_mask[u] & avail_mask[v]
        if not shared_mask:
            return
        if adv_mask[u] & adv_mask[v]:
            return
        saving = saving_of(size, shared_mask)
        if saving <= 0.0:
            return
        heapq.heappush(heap, (-saving, u, v, version[u], version[v]))
        stats.heap_pushes += 1

    by_size: Dict[int, List[int]] = {}
    for nid in sorted(avail_mask):
        if avail_mask[nid]:
            by_size.setdefault(len(nodes[nid].advertisers), []).append(nid)
    for size in sorted(by_size):
        group = by_size[size]
        for index, u in enumerate(group):
            for v in group[index + 1 :]:
                push_pair(u, v, size)

    while heap:
        neg_saving, u, v, ver_u, ver_v = heapq.heappop(heap)
        if version[u] != ver_u or version[v] != ver_v:
            # Operand availability changed since the push: the entry is
            # a stale upper bound.  Rescore exactly and requeue.
            stats.stale_rescored += 1
            shared_mask = avail_mask[u] & avail_mask[v]
            if shared_mask:
                saving = saving_of(len(nodes[u].advertisers), shared_mask)
                if saving > 0.0:
                    heapq.heappush(
                        heap, (-saving, u, v, version[u], version[v])
                    )
                    stats.heap_pushes += 1
            continue
        # Current entry == exact global max: perform the merge.
        size = len(nodes[u].advertisers)
        shared_mask = avail_mask[u] & avail_mask[v]
        shared = interner.frozenset_of(shared_mask)
        w = len(nodes)
        node = SortPlanNode(
            w,
            nodes[u].advertisers | nodes[v].advertisers,
            shared,
            left=u,
            right=v,
        )
        nodes.append(node)
        stats.merges += 1
        avail_mask[w] = shared_mask
        adv_mask[w] = adv_mask[u] | adv_mask[v]
        version[w] = 0
        avail_mask[u] &= ~shared_mask
        avail_mask[v] &= ~shared_mask
        version[u] += 1
        version[v] += 1
        # Only pairs touching the new node need fresh scores; pairs
        # touching u or v are rescored lazily when they surface.
        new_size = 2 * size
        bucket = by_size.setdefault(new_size, [])
        for x in bucket:
            if avail_mask[x]:
                push_pair(x, w, new_size)
        bucket.append(w)

    for nid in range(len(nodes)):
        available[nid] = interner.frozenset_of(avail_mask[nid])
