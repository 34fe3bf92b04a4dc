"""Columnar threshold-algorithm kernel over presorted column indices.

The object-path Section III pipeline instantiates a shared merge-sort
network of descending-bid streams and runs the threshold algorithm per
phrase, pulling items one batch at a time through Python operator
objects.  With the population in a
:class:`repro.core.columnar.ColumnarStore`, both sorted lists TA needs
are *index arrays*:

- the **bid list** is one shared ``np.lexsort`` over the round's
  occurring rows (descending effective bid, ties by ascending id),
  computed once per round and filtered per phrase by the membership
  mask -- the columnar analogue of the shared sort network: every
  phrase reads the same presorted column;
- the **CTR list** is the store's cached
  :meth:`~repro.core.columnar.ColumnarStore.phrase_ctr_rank_positions`
  (descending ``c_i^q``, ties by ascending id) -- CTR factors change
  rarely, so the presort amortizes across rounds exactly like the
  engine's object-path ``_ctr_orders``.

:class:`ColumnarThresholdKernel` then runs TA with geometrically
doubling sorted-access depth: read a prefix of both lists, resolve the
union's scores by (vectorized) random access, and stop once the running
k-th best *strictly* exceeds the threshold ``last_bid * last_ctr``.  The
strict stop makes the result provably the exact top-k with the full
``(-score, advertiser_id)`` tie-break: any unseen row's score is at most
the threshold, hence strictly below every retained entry, so no tie
against an unseen row can exist.  Outcomes are byte-identical to the
object path (which the layout differential asserts); only the work
counters -- ``ta.sorted_accesses`` et al. -- differ by strategy, exactly
as they do between the batched and item-at-a-time object engines.

The kernel runs that algorithm at two granularities (DESIGN section
20).  :meth:`ColumnarThresholdKernel.rank_round`, the engine's route,
takes every phrase of the round through the stages together -- stage
``s`` is a handful of array operations over the ``(active phrases,
k * 2**s)`` prefix tables -- and returns the round's rankings as flat
arrays (:class:`RankedRound`) that stage 4 prices without rebuilding a
``TopKList`` per phrase.  :meth:`ColumnarThresholdKernel.rank_phrase`
takes one phrase through them and is kept as its differential oracle:
same stop depths, same accesses, same floats.

Cross-round reuse (``sort_cache=True``) is :class:`ColumnarSortCache`:
instead of one full lexsort per round, the cache keeps the descending
``(-effective_bid, id)`` order alive across rounds as a *global* row
permutation covering every row ever scored, and repairs it
incrementally.  Per round it drains the change feed, refines the
declared advertisers to the rows whose effective bid actually moved
(with the same declared-vs-diffed ``verify=`` soundness cross-check as
:class:`repro.sharedsort.cache.CrossRoundSortCache`), removes the
dirty and first-sight rows from the cached order with one boolean
mask, and merge-inserts them at their ``searchsorted`` positions.
Because advertiser ids are distinct, ``(-bid, id)`` is a strict total
order, so the repaired permutation is *the* sorted permutation --
byte-identical to a fresh lexsort, hence to the uncached kernel and to
the object path.  A phrase's TA then filters the global order by its
membership mask; every member of a ranked phrase is an occurring
(freshly scored) row, so stale positions of non-occurring rows are
never read.  The CTR-side presort
(:meth:`~repro.core.columnar.ColumnarStore.phrase_ctr_rank_positions`)
already persists across rounds in the store.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Dict, Iterable, Iterator, Optional, Sequence, Set, Tuple

from repro.core.columnar import (
    ColumnarStore,
    columnar_top_k,
    require_numpy,
    segmented_top_k_picks,
)
from repro.core.topk import ScoredAdvertiser, TopKList
from repro.errors import InvalidPlanError
from repro.instrument import NULL, Collector, names as metric_names

try:  # pragma: no cover - numpy ships with the package
    import numpy as np
except ImportError:  # pragma: no cover
    np = None  # type: ignore[assignment]

__all__ = ["ColumnarSortCache", "ColumnarThresholdKernel", "RankedRound"]


class ColumnarSortCache:
    """Cross-round incremental repair of the shared descending-bid order.

    The columnar counterpart of
    :class:`repro.sharedsort.cache.CrossRoundSortCache`, with the same
    interface contract -- :meth:`connect` to the engine's change feed,
    :attr:`pending_dirty`, declared-vs-diffed ``verify``, autotuner
    bypass -- but row-granular state: one cached permutation instead of
    a tree of live stream objects.  ``sort.streams_reused`` /
    ``sort.streams_invalidated`` count *rows* kept / re-ranked here
    (the object cache counts streams); either way the counters report
    how much of the round's sort the cache saved.  When advertisers
    enter or leave the store its rows are renumbered, and the cache
    starts over at the next round.

    Args:
        store: The columnar population (rows are positions in the
            cached permutation).
        collector: Receives ``sort.streams_reused`` (rows kept in
            place) and ``sort.streams_invalidated`` (rows re-ranked)
            per round.
        verify: Keep the exact effective-bid diff as a soundness
            cross-check on the change-feed events: an undeclared bid
            change raises ``InvalidPlanError``.  ``False`` trusts the
            feed and keeps undeclared rows' snapshots.
        autotuner: Optional duck-typed
            :class:`repro.engine.autotune.CacheAutotuner`; consulted
            per round for the bypass decision (a bypass round re-sorts
            from scratch) and fed the observed dirty fraction.  LRU
            sizing does not apply -- the permutation is bounded by the
            population.

    Attributes:
        rounds: Rounds absorbed.
        bypass_rounds: Rounds re-sorted fresh on autotuner advice.
        rows_reused: Cumulative rows kept in their cached positions.
        rows_repaired: Cumulative rows re-ranked into the order.
    """

    def __init__(
        self,
        store: ColumnarStore,
        collector: Collector = NULL,
        verify: bool = True,
        autotuner=None,
    ) -> None:
        require_numpy()
        self.store = store
        self.collector = collector
        self.verify = verify
        self.autotuner = autotuner
        self._subscription = None
        self._pending_dirty: Set[int] = set()
        self.rounds = 0
        self.bypass_rounds = 0
        self.rows_reused = 0
        self.rows_repaired = 0
        self._forget_rows()

    def _forget_rows(self) -> None:
        """Empty everything keyed by row, sized for the store's rows.

        ``_ids`` is the store's id column that numbering belongs to: the
        store replaces the array when advertisers enter or leave.
        """
        size = self.store.size
        self._ids = self.store.ids
        self._order: Optional["np.ndarray"] = None
        self._last_eff = np.zeros(size, dtype=np.float64)
        self._seen = np.zeros(size, dtype=bool)

    def connect(self, feed) -> None:
        """Subscribe to a change feed; bid dirtiness then arrives as
        events, drained once per :meth:`order_for_round`."""
        if self._subscription is not None:
            raise InvalidPlanError("sort cache is already connected to a feed")
        self._subscription = feed.subscribe(
            name="columnar-sort-cache",
            kinds=(
                "bid_changed",
                "budget_changed",
                "advertiser_added",
                "advertiser_removed",
            ),
        )

    @property
    def pending_dirty(self) -> frozenset:
        """Advertisers declared dirty by drained events and not yet
        absorbed by a round that scored them."""
        return frozenset(self._pending_dirty)

    def order_for_round(
        self,
        effective_by_row,
        rows,
        dirty: Optional[Iterable[int]] = None,
    ) -> Tuple["np.ndarray", int]:
        """Repair (or build) the shared order for one round.

        Args:
            effective_by_row: Full-length float64 effective bids in
                cents; the engine keeps non-occurring rows at their
                last-written values, which is what lets the global
                permutation stay valid for rows outside this round.
            rows: The round's occurring (freshly scored) row indices.
            dirty: Explicitly declared dirty advertiser ids; mutually
                exclusive with a connected feed.  ``None`` with no feed
                auto-diffs every scored row.

        Returns:
            ``(order, repaired)``: the global descending-bid row
            permutation (covering every row ever scored) and the number
            of rows re-ranked into it this round -- the cached round's
            sort work, which the engine reports where the uncached
            kernel reports the full materialization count.
        """
        self.rounds += 1
        store = self.store
        if store.ids is not self._ids:
            # Advertisers entered or left: rows were renumbered, so the
            # cached order and snapshots describe other advertisers.
            # The round builds from scratch, like the first.
            self._forget_rows()
        if self._subscription is not None:
            if dirty is not None:
                raise InvalidPlanError(
                    "dirty sets arrive via the change feed once connected; "
                    "do not also declare them by argument"
                )
            for event in self._subscription.drain():
                self._pending_dirty |= event.dirty_advertisers
            declared_ids: Optional[Set[int]] = set(self._pending_dirty)
        elif dirty is not None:
            declared_ids = set(dirty)
        else:
            declared_ids = None
        rows = np.asarray(rows, dtype=np.int64)
        sub = effective_by_row[rows]
        seen = self._seen[rows]
        changed = seen & (sub != self._last_eff[rows])
        if declared_ids is None:
            dirty_sub = ~seen | changed
        else:
            declared = np.zeros(store.size, dtype=bool)
            if declared_ids:
                present = sorted(
                    advertiser_id
                    for advertiser_id in declared_ids
                    if advertiser_id in store
                )
                if present:
                    declared[store.rows_of(present)] = True
            declared_sub = declared[rows]
            if self.verify:
                bad = changed & ~declared_sub
                if bad.any():
                    row = int(rows[int(np.flatnonzero(bad)[0])])
                    raise InvalidPlanError(
                        f"unsound change feed: bid of advertiser "
                        f"{int(store.ids[row])} changed "
                        f"({float(self._last_eff[row])} -> "
                        f"{float(effective_by_row[row])}) without a "
                        "covering event"
                    )
            dirty_sub = ~seen | (declared_sub & changed)
        dirty_rows = rows[dirty_sub]
        changed_count = int(len(dirty_rows))
        self._last_eff[dirty_rows] = effective_by_row[dirty_rows]
        self._seen[dirty_rows] = True

        autotuner = self.autotuner
        bypass = (
            self._order is not None
            and autotuner is not None
            and autotuner.should_bypass()
        )
        if self._order is None:
            # First round: nothing to repair, build from scratch (the
            # object cache likewise charges no reuse/invalidation for
            # its first instantiation).
            order = np.lexsort((store.ids[rows], -effective_by_row[rows]))
            self._order = rows[order]
            repaired = int(len(rows))
            reused = 0
            counted = False
        elif bypass:
            self.bypass_rounds += 1
            autotuner.record_bypass()
            self._order = self._resort(effective_by_row, dirty_rows)
            repaired = int(len(self._order))
            reused = 0
            counted = False
        else:
            reused, repaired = self._repair(effective_by_row, dirty_rows)
            counted = True
        if counted:
            self.rows_reused += reused
            self.rows_repaired += repaired
            collector = self.collector
            if collector.enabled:
                if reused:
                    collector.incr(metric_names.SORT_STREAMS_REUSED, reused)
                if repaired:
                    collector.incr(
                        metric_names.SORT_STREAMS_INVALIDATED, repaired
                    )
        if declared_ids is not None and self._pending_dirty:
            scored = np.zeros(store.size, dtype=bool)
            scored[rows] = True
            self._pending_dirty = {
                advertiser_id
                for advertiser_id in self._pending_dirty
                if advertiser_id not in store
                or not scored[store.row_of(advertiser_id)]
            }
        if autotuner is not None:
            autotuner.observe_round(
                changed_count, int(len(rows)), int(len(self._order))
            )
        return self._order, repaired

    def _resort(self, effective_by_row, dirty_rows) -> "np.ndarray":
        """Full lexsort over the union of cached and dirty rows."""
        store = self.store
        member = np.zeros(store.size, dtype=bool)
        member[self._order] = True
        member[dirty_rows] = True
        all_rows = np.flatnonzero(member)
        order = np.lexsort((store.ids[all_rows], -effective_by_row[all_rows]))
        return all_rows[order]

    def _repair(self, effective_by_row, dirty_rows) -> Tuple[int, int]:
        """Remove dirty rows from the cached order and merge them back.

        The clean remainder is already sorted by ``(-bid, id)`` (its
        rows' bids are verified unchanged), and the dirty rows are
        sorted by the same key, so positions come from two vectorized
        ``searchsorted`` calls on the bid key plus an id-level
        ``searchsorted`` inside each equal-bid run -- a loop over the
        (small) dirty set only.  Distinct ids make the key a strict
        total order, so the merged permutation is byte-identical to a
        fresh lexsort.
        """
        store = self.store
        previous = self._order
        if not len(dirty_rows):
            return int(len(previous)), 0
        # A dirty fraction large enough that merge-insert positions stop
        # paying for themselves: re-sort.  Work-only heuristic -- the
        # resulting permutation is identical either way.
        if 4 * len(dirty_rows) >= len(previous):
            self._order = self._resort(effective_by_row, dirty_rows)
            return 0, int(len(self._order))
        dirty_mask = np.zeros(store.size, dtype=bool)
        dirty_mask[dirty_rows] = True
        clean = previous[~dirty_mask[previous]]
        key_order = np.lexsort(
            (store.ids[dirty_rows], -effective_by_row[dirty_rows])
        )
        ranked_dirty = dirty_rows[key_order]
        clean_neg = -effective_by_row[clean]
        clean_ids = store.ids[clean]
        neg = -effective_by_row[ranked_dirty]
        lo = np.searchsorted(clean_neg, neg, side="left")
        hi = np.searchsorted(clean_neg, neg, side="right")
        positions = np.empty(len(ranked_dirty), dtype=np.int64)
        dirty_ids = store.ids[ranked_dirty]
        for j in range(len(ranked_dirty)):
            start = int(lo[j])
            stop = int(hi[j])
            positions[j] = start + int(
                np.searchsorted(clean_ids[start:stop], dirty_ids[j])
            )
        self._order = np.insert(clean, positions, ranked_dirty)
        return int(len(clean)), int(len(ranked_dirty))


class RankedRound(Mapping):
    """A round's Section III rankings, as flat arrays.

    What :meth:`ColumnarThresholdKernel.rank_round` hands stage 4: every
    phrase's ranked entries laid end to end in (phrase, rank) order,
    with the two per-entry values pricing needs and the kernel already
    held -- the advertiser's row and its ``c_i^q`` for that phrase.
    Read as a ``Mapping[str, TopKList]`` it builds a phrase's
    :class:`~repro.core.topk.TopKList` on demand, for the scalar
    allocation route, the benches and the tests (the
    :class:`repro.core.columnar.ArrayScoreMap` precedent: arrays for
    array consumers, the object contract for the rest).

    Attributes:
        phrases: The round's phrases, in the order they were ranked.
        k: Ranking capacity.
        lens: int64 entries per phrase (``min(k, members)``).
        scores: float64 scores, best first within a phrase.
        ids: int64 advertiser ids, parallel to ``scores``.
        rows: int64 store rows of ``ids``.
        c: float64 ``c_i^q`` of each entry for its phrase
            (:meth:`Advertiser.ctr_factor_for`).
    """

    __slots__ = (
        "phrases", "k", "lens", "scores", "ids", "rows", "c", "_spans"
    )

    def __init__(
        self, phrases: Sequence[str], k: int, lens, scores, ids, rows, c
    ) -> None:
        self.phrases = tuple(phrases)
        self.k = k
        self.lens = lens
        self.scores = scores
        self.ids = ids
        self.rows = rows
        self.c = c
        self._spans: Optional[Dict[str, Tuple[int, int]]] = None

    @property
    def arrays(self):
        """``(lens, scores, ids, rows, c)``."""
        return self.lens, self.scores, self.ids, self.rows, self.c

    def __getitem__(self, phrase: str) -> TopKList:
        if self._spans is None:
            ends = np.cumsum(self.lens).tolist()
            self._spans = {
                name: (end - count, end)
                for name, count, end in zip(
                    self.phrases, self.lens.tolist(), ends
                )
            }
        start, end = self._spans[phrase]
        return TopKList.from_ranked(
            self.k,
            tuple(
                map(
                    ScoredAdvertiser,
                    self.scores[start:end].tolist(),
                    self.ids[start:end].tolist(),
                )
            ),
        )

    def __iter__(self) -> Iterator[str]:
        return iter(self.phrases)

    def __len__(self) -> int:
        return len(self.phrases)


class ColumnarThresholdKernel:
    """Per-round shared bid presort + vectorized TA.

    :meth:`rank_round` runs TA for every phrase of a round in lockstep
    array stages and is what the engine calls, whatever the round's
    size.  :meth:`rank_phrase` runs it for one phrase -- the same
    rankings, accesses and ``ta.*`` counts -- and stays as the
    differential oracle the tests hold ``rank_round`` to.

    The kernel holds no copy of phrase membership or CTR order: both
    methods read the store's cached per-phrase arrays every round, so the
    store's invalidation is the only invalidation rule.

    Args:
        store: The columnar population.
        k: Ranking capacity (the engine passes ``slots + 1``).
        collector: Receives the ``ta.*`` counters (runs, sorted
            accesses, random accesses, stages, stop depth), so
            shared-sort work tables keep reporting through the same
            names under either layout.
        cache: Optional :class:`ColumnarSortCache`; when present,
            :meth:`begin_round` delegates the shared order to the
            cache's incremental repair instead of a fresh lexsort.  The
            cached order covers every row ever scored (a superset of
            the round's occurring rows); a phrase's TA filters it by
            membership, and every member of a ranked phrase occurs in
            that round, so the extra rows are never read.
    """

    def __init__(
        self,
        store: ColumnarStore,
        k: int,
        collector: Collector = NULL,
        cache: Optional[ColumnarSortCache] = None,
    ) -> None:
        require_numpy()
        if k <= 0:
            raise InvalidPlanError(f"k must be positive, got {k}")
        self.store = store
        self.k = k
        self.collector = collector
        self.cache = cache
        self._order: Optional["np.ndarray"] = None
        self._effective_by_row: Optional["np.ndarray"] = None
        # rank_phrase's scratch, row -> position within the current
        # phrase's row list; sized from the store when a round begins.
        self._position_of_row = np.zeros(0, dtype=np.int64)

    def begin_round(self, effective_by_row, rows) -> int:
        """Compute the round's shared descending-bid order.

        One lexsort over the occurring rows, shared by every phrase of
        the round -- the work the object path spends instantiating and
        pulling the merge network.  With a :class:`ColumnarSortCache`
        attached, the order is instead repaired incrementally and the
        returned work is the number of rows re-ranked.

        Args:
            effective_by_row: Full-length float64 effective bids in
                cents (only ``rows`` entries are meaningful).
            rows: The round's occurring row indices (ascending).

        Returns:
            The number of rows materialized into the shared order
            (repaired into it, under the cache) -- the engine reports
            it as the round's shared-sort work.
        """
        self._effective_by_row = effective_by_row
        if len(self._position_of_row) != self.store.size:
            # Structural churn renumbers and resizes row space.
            self._position_of_row = np.zeros(self.store.size, dtype=np.int64)
        if self.cache is not None:
            self._order, repaired = self.cache.order_for_round(
                effective_by_row, rows
            )
            return repaired
        order = np.lexsort(
            (self.store.ids[rows], -effective_by_row[rows])
        )
        self._order = rows[order]
        return int(len(self._order))

    def rank_phrase(self, phrase: str) -> Tuple[TopKList, int]:
        """TA over the phrase's two presorted index lists.

        Returns:
            ``(ranking, sorted_accesses)`` -- the exact top-k list and
            the sorted accesses charged (both lists' final read depth),
            mirroring the object TA's per-phrase accounting.

        Raises:
            InvalidPlanError: If called before :meth:`begin_round`.
        """
        if self._order is None or self._effective_by_row is None:
            raise InvalidPlanError("rank_phrase before begin_round")
        store = self.store
        collector = self.collector
        phrase_rows = store.phrase_rows(phrase)
        n = int(len(phrase_rows))
        if n == 0:
            return TopKList(self.k), 0
        factors = store.phrase_ctr(phrase)
        effective = self._effective_by_row[phrase_rows]
        # Per-phrase scores, same operation order as the object path:
        # (cents / 100.0) * c_i^q.
        scores = effective / 100.0 * factors
        self._position_of_row[phrase_rows] = np.arange(n)
        # Bid list: the shared round order filtered to this phrase.
        membership = store.membership(phrase)
        bid_rows = self._order[membership[self._order]]
        bid_positions = self._position_of_row[bid_rows]
        ctr_positions = store.phrase_ctr_rank_positions(phrase)

        seen = np.zeros(n, dtype=bool)
        depth = min(n, self.k)
        stages = 0
        while True:
            stages += 1
            seen[bid_positions[:depth]] = True
            seen[ctr_positions[:depth]] = True
            if depth >= n:
                break
            last_bid = float(effective[bid_positions[depth - 1]]) / 100.0
            last_ctr = float(factors[ctr_positions[depth - 1]])
            threshold = last_bid * last_ctr
            seen_positions = np.flatnonzero(seen)
            seen_scores = scores[seen_positions]
            if len(seen_positions) >= self.k:
                kth = float(
                    np.partition(seen_scores, len(seen_scores) - self.k)[
                        len(seen_scores) - self.k
                    ]
                )
                # Strict: at kth == threshold an unseen row could still
                # tie and win on the id tie-break, so keep reading.
                if kth > threshold:
                    break
            depth = min(n, depth * 2)
        seen_positions = np.flatnonzero(seen)
        ranking = columnar_top_k(
            self.k,
            scores[seen_positions],
            store.ids[phrase_rows[seen_positions]],
        )
        sorted_accesses = 2 * depth
        if collector.enabled:
            collector.incr(metric_names.TA_RUNS)
            collector.incr(metric_names.TA_SORTED_ACCESSES, sorted_accesses)
            collector.incr(
                metric_names.TA_RANDOM_ACCESSES, int(len(seen_positions))
            )
            collector.incr(metric_names.TA_STAGES, stages)
            collector.gauge(metric_names.TA_STOP_DEPTH, depth)
        return ranking, sorted_accesses

    def rank_round(
        self, phrases: Sequence[str]
    ) -> Tuple[RankedRound, "np.ndarray"]:
        """TA for every phrase of the round, in lockstep array stages.

        The round's (phrase, member) *cells* are the store's per-phrase
        arrays laid end to end.  One ``argsort`` of ``segment * size +
        shared_rank[row]`` yields every phrase's bid list at once (the
        batched form of :meth:`rank_phrase`'s ``order[membership[
        order]]``; ranks of rows outside the round are never read).
        Stage ``s`` reads depth ``d = k * 2**s`` of both lists of the
        still-active phrases as two ``(active, d)`` tables of cells and
        scores only those: a CTR-prefix cell that sorts at or before the
        last cell of its phrase's bid prefix is in that prefix already
        and is blanked, so a row of the ``(active, 2d)`` score table is
        exactly the set ``rank_phrase`` has seen at that depth.  Its
        k-th best is one
        ``np.partition`` (an element, not an arithmetic result), the
        threshold the same two operations on column ``d - 1``, and the
        stop the same strict ``kth > threshold`` -- or ``n <= d``, the
        lists exhausted.  Every phrase therefore stops at
        ``rank_phrase``'s depth after its number of stages and
        accesses, and the work is TA's own, the sum over stages of
        ``active * 2d``: no table is padded to the longest phrase.  A
        phrase leaves with its seen cells that score at least its k-th
        best (no other can rank), and one ``(segment, -score, id)``
        sort over those picks every phrase's entries.

        Args:
            phrases: The round's phrases; a phrase without members
                ranks empty, as in :meth:`rank_phrase`.

        Returns:
            ``(ranked, sorted_accesses)`` -- the rankings as flat
            arrays and the sorted accesses charged to each phrase.

        Raises:
            InvalidPlanError: If called before :meth:`begin_round`, or
                a phrase has a member row the round's shared order does
                not hold.
        """
        if self._order is None or self._effective_by_row is None:
            raise InvalidPlanError("rank_round before begin_round")
        store = self.store
        k = self.k
        order = self._order
        effective = self._effective_by_row
        count = len(phrases)
        member_rows = [store.phrase_rows(phrase) for phrase in phrases]
        sizes = np.fromiter(map(len, member_rows), np.int64, count)
        depth = np.zeros(count, dtype=np.int64)
        if not sizes.any():
            no_ints = np.zeros(0, dtype=np.int64)
            no_floats = np.zeros(0, dtype=np.float64)
            return (
                RankedRound(
                    phrases, k, sizes, no_floats, no_ints, no_ints, no_floats
                ),
                depth,
            )
        starts = np.cumsum(sizes) - sizes
        cell_rows = np.concatenate(member_rows)
        cell_c = np.concatenate([store.phrase_ctr(p) for p in phrases])
        # Both sorted lists of every phrase, laid end to end like the
        # cells: entry starts[p] + j is the j-th of phrase p's list.  The
        # CTR list holds positions within the phrase, the bid list cells.
        ctr_list = np.concatenate(
            [store.phrase_ctr_rank_positions(p) for p in phrases]
        )
        shared_rank = np.full(store.size, -1, dtype=np.int64)
        shared_rank[order] = np.arange(len(order))
        cell_rank = shared_rank[cell_rows]
        if cell_rank.min() < 0:
            unranked = cell_rows[np.flatnonzero(cell_rank < 0)[0]]
            raise InvalidPlanError(
                f"advertiser {int(store.ids[unranked])} is a member of a "
                "ranked phrase but not in the round's shared order "
                "(begin_round takes every member row of every phrase)"
            )
        bid_key = np.repeat(np.arange(count) * len(order), sizes) + cell_rank
        bid_list = np.argsort(bid_key)

        stages = np.zeros(count, dtype=np.int64)
        seen = np.zeros(count, dtype=np.int64)
        kept_cells = []
        kept_scores = []
        kept_phrases = []
        ran = np.flatnonzero(sizes)
        active = ran
        d = k
        stage = 0
        while len(active):
            stage += 1
            n = sizes[active]
            first = starts[active][:, None]
            columns = np.arange(d)
            # Lists shorter than d repeat their last entry; `held` says
            # which table cells are real.
            at = first + np.minimum(columns, n[:, None] - 1)
            held = columns < n[:, None]
            bid_cells = bid_list[at]
            ctr_cells = first + ctr_list[at]
            cells = np.concatenate((bid_cells, ctr_cells), axis=1)
            # A CTR-prefix cell that sorts at or before the bid prefix's
            # last cell is in the bid prefix already.
            last_bid_key = bid_key[bid_cells[:, -1:]]
            fresh = np.concatenate(
                (held, held & (bid_key[ctr_cells] > last_bid_key)), axis=1
            )
            bids = effective[cell_rows[cells]]
            factors = cell_c[cells]
            # Same operation order as rank_phrase: (cents / 100.0) * c.
            scores = np.where(fresh, bids / 100.0 * factors, -np.inf)
            kth = np.partition(scores, 2 * d - k, axis=1)[:, 2 * d - k]
            threshold = bids[:, d - 1] / 100.0 * factors[:, 2 * d - 1]
            # Strict: at kth == threshold an unseen row could still tie
            # and win on the id tie-break, so keep reading.
            done = (n <= d) | (kth > threshold)
            leaving = active[done]
            seen_cells = fresh[done]
            final_scores = scores[done]
            keep = seen_cells & (final_scores >= kth[done, None])
            kept_cells.append(cells[done][keep])
            kept_scores.append(final_scores[keep])
            kept_phrases.append(np.repeat(leaving, keep.sum(axis=1)))
            depth[leaving] = np.minimum(n[done], d)
            stages[leaving] = stage
            seen[leaving] = seen_cells.sum(axis=1)
            active = active[~done]
            d *= 2

        candidates = np.concatenate(kept_cells)
        candidate_scores = np.concatenate(kept_scores)
        candidate_rows = cell_rows[candidates]
        candidate_ids = store.ids[candidate_rows]
        picked, _, _, lens = segmented_top_k_picks(
            k,
            candidate_scores,
            candidate_ids,
            np.concatenate(kept_phrases),
            count,
        )
        sorted_accesses = 2 * depth
        collector = self.collector
        if collector.enabled:
            collector.incr(metric_names.TA_RUNS, int(len(ran)))
            collector.incr(
                metric_names.TA_SORTED_ACCESSES, int(sorted_accesses.sum())
            )
            collector.incr(metric_names.TA_RANDOM_ACCESSES, int(seen.sum()))
            collector.incr(metric_names.TA_STAGES, int(stages.sum()))
            collector.gauge(metric_names.TA_STOP_DEPTH, int(depth[ran[-1]]))
        return (
            RankedRound(
                phrases,
                k,
                lens,
                candidate_scores[picked],
                candidate_ids[picked],
                candidate_rows[picked],
                cell_c[candidates[picked]],
            ),
            sorted_accesses,
        )
