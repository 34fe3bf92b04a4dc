"""On-demand merge-sort operators with output caching.

Section III-B: rather than running a full merge-sort upfront, each
non-leaf node of the merge-sort tree is an *on-demand operator* holding a
left and a right register.  When asked for its next output it sends the
larger of the two registers upstream and clears it; an empty register is
refilled by pulling from the corresponding downstream (child) node.  Work
stops as soon as the threshold algorithm stops asking, and every operator
caches the sequence it has emitted so that a second phrase's plan sharing
the operator replays the cache for free.

Items are ``(bid, advertiser_id)`` pairs ordered by descending bid with
ties broken by ascending advertiser id (consistent with the rest of the
library).
"""

from __future__ import annotations

from typing import Hashable, List, Optional, Sequence, Tuple

from repro.errors import InvalidPlanError
from repro.instrument import NULL, Collector, names as metric_names

__all__ = ["SortStream", "LeafSource", "MergeOperator"]

Item = Tuple[float, int]
"""A ``(bid, advertiser_id)`` pair."""


def _rank_key(item: Item) -> Tuple[float, int]:
    """Key under which larger means earlier in the output order."""
    bid, advertiser_id = item
    return (bid, -advertiser_id)


class SortStream:
    """Base class: a lazily computed descending-bid stream with a cache.

    Consumers address items by index via :meth:`item`, or in bulk via
    :meth:`items`; multiple consumers (phrases) can read the same stream
    at their own pace, which is what makes the operators shareable.
    Subclasses implement :meth:`_produce_next` returning the next item
    or ``None``.

    Args:
        collector: Receives ``sort.*`` counters: ``sort.cache_replays``
            for reads served from the output cache (zero child pulls),
            ``sort.leaf_reads`` / ``sort.operator_pulls`` for produced
            items, ``sort.batch_pulls`` / ``sort.batched_items`` for
            batched reads, and -- when enabled and a ``label`` is set --
            ``sort.node_pulls`` keyed by the label.
        label: Stable identity of this stream within its plan (node id,
            or a phrase-assembly tag); used only for keyed counters.
    """

    def __init__(
        self, collector: Collector = NULL, label: Optional[Hashable] = None
    ) -> None:
        self._cache: List[Item] = []
        self._exhausted = False
        self.pulls = 0
        self.collector = collector
        self.label = label

    def item(self, index: int) -> Optional[Item]:
        """Return the ``index``-th item (0-based), or ``None`` past the end.

        Items already emitted are served from the cache without work: a
        replayed read performs zero child pulls by construction (counted
        as ``sort.cache_replays`` when collection is on).
        """
        if index < 0:
            raise InvalidPlanError(f"stream index must be non-negative: {index}")
        if index < len(self._cache):
            if self.collector.enabled:
                self.collector.incr(metric_names.SORT_CACHE_REPLAYS)
            return self._cache[index]
        while len(self._cache) <= index and not self._exhausted:
            produced = self._produce_next()
            if produced is None:
                self._exhausted = True
            else:
                self._cache.append(produced)
        if index < len(self._cache):
            return self._cache[index]
        return None

    def items(self, lo: int, hi: int) -> List[Item]:
        """Batched read: the available items in ``[lo, hi)``.

        Serves everything the output cache already holds in the range in
        one call, producing **at most the items a per-item read of
        ``lo`` would have produced** -- nothing in ``(lo, hi)`` is
        prefetched speculatively.  An early-stopping consumer therefore
        sees exactly the operator pulls of the item-at-a-time engine
        (``sort.operator_pulls`` parity), while replayed regions -- the
        common case for shared operators -- are
        returned as one list slice instead of ``hi - lo`` calls walking
        the operator tree.

        Returns an empty list when ``lo`` is at or past the end of the
        stream.  ``sort.batch_pulls`` counts calls, ``sort.batched_items``
        counts returned items, and replayed items still land on
        ``sort.cache_replays`` so the cache-accounting invariants hold
        for both engines.
        """
        if lo < 0 or hi < lo:
            raise InvalidPlanError(f"bad stream range [{lo}, {hi})")
        cache = self._cache
        cached_before = len(cache)
        if lo >= cached_before and not self._exhausted:
            # Materialize through ``lo`` only -- the same production an
            # item-at-a-time read would force, and no more.
            while len(cache) <= lo and not self._exhausted:
                produced = self._produce_next()
                if produced is None:
                    self._exhausted = True
                else:
                    cache.append(produced)
        end = min(hi, len(cache))
        if self.collector.enabled:
            self.collector.incr(metric_names.SORT_BATCH_PULLS)
            if end > lo:
                self.collector.incr(metric_names.SORT_BATCHED_ITEMS, end - lo)
            replayed = min(end, cached_before) - lo
            if replayed > 0:
                self.collector.incr(metric_names.SORT_CACHE_REPLAYS, replayed)
        if end <= lo:
            return []
        return cache[lo:end]

    def emitted(self) -> Sequence[Item]:
        """The items emitted so far (a snapshot copy of the cache).

        This copies; hot paths wanting only the tail or the length use
        :meth:`last_emitted` / :meth:`emitted_count`, which are O(1).
        """
        return tuple(self._cache)

    def last_emitted(self) -> Optional[Item]:
        """The most recently emitted item without copying the cache."""
        cache = self._cache
        return cache[-1] if cache else None

    def emitted_count(self) -> int:
        """Number of items emitted so far (the cache length)."""
        return len(self._cache)

    def _produce_next(self) -> Optional[Item]:
        raise NotImplementedError


class LeafSource(SortStream):
    """A single advertiser's bid -- a one-item stream.

    Leaves count a "pull" the first time their value is read, modeling
    one sequential access to the advertiser's bid.
    """

    def __init__(
        self,
        bid: float,
        advertiser_id: int,
        collector: Collector = NULL,
        label: Optional[Hashable] = None,
    ) -> None:
        super().__init__(collector, label)
        self._item: Optional[Item] = (float(bid), int(advertiser_id))
        self.advertiser_ids = frozenset({int(advertiser_id)})

    def _produce_next(self) -> Optional[Item]:
        item, self._item = self._item, None
        if item is not None:
            self.pulls += 1
            self.collector.incr(metric_names.SORT_LEAF_READS)
        return item


class MergeOperator(SortStream):
    """A binary on-demand merge of two descending streams.

    Implements the paper's register semantics: a register holds the next
    candidate from one child; emitting sends the larger register upstream
    and clears it; a cleared register refills by pulling the child.  The
    registers are realized as per-child read cursors into the children's
    caches, which is observationally identical and lets children be
    shared by other operators.

    Attributes:
        advertiser_ids: The set ``I_v`` of advertisers below the operator.
        pulls: Number of items this operator has produced -- the paper's
            invocation count, at most ``|I_v|``.
    """

    def __init__(
        self,
        left: SortStream,
        right: SortStream,
        collector: Collector = NULL,
        label: Optional[Hashable] = None,
    ) -> None:
        super().__init__(collector, label)
        left_ids = getattr(left, "advertiser_ids", frozenset())
        right_ids = getattr(right, "advertiser_ids", frozenset())
        if left_ids & right_ids:
            raise InvalidPlanError(
                "merge operands must cover disjoint advertiser sets; got "
                f"overlap {set(left_ids & right_ids)!r}"
            )
        self.left = left
        self.right = right
        self.advertiser_ids = left_ids | right_ids
        self._left_cursor = 0
        self._right_cursor = 0

    def _produce_next(self) -> Optional[Item]:
        # Register refills read the children's caches directly when the
        # item is already materialized -- same replay accounting as
        # ``child.item()`` without re-entering the wrapper per item,
        # which is where the per-item engine spent most of its time on
        # replayed (shared) subtrees.
        counting = self.collector.enabled
        left = self.left
        cursor = self._left_cursor
        if cursor < len(left._cache):
            left_item: Optional[Item] = left._cache[cursor]
            if counting:
                self.collector.incr(metric_names.SORT_CACHE_REPLAYS)
        else:
            left_item = left.item(cursor)
        right = self.right
        cursor = self._right_cursor
        if cursor < len(right._cache):
            right_item: Optional[Item] = right._cache[cursor]
            if counting:
                self.collector.incr(metric_names.SORT_CACHE_REPLAYS)
        else:
            right_item = right.item(cursor)
        if left_item is None and right_item is None:
            return None
        if right_item is None or (
            left_item is not None
            and _rank_key(left_item) >= _rank_key(right_item)
        ):
            self._left_cursor += 1
            item = left_item
        else:
            self._right_cursor += 1
            item = right_item
        self.pulls += 1
        collector = self.collector
        collector.incr(metric_names.SORT_OPERATOR_PULLS)
        if collector.enabled and self.label is not None:
            collector.incr_keyed(metric_names.SORT_NODE_PULLS, self.label)
        return item
