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
against an unseen row can exist.  Outcomes are byte-identical to
:class:`repro.reference.ReferenceEngine`'s per-phrase scan (which the
differential suites assert); only the work counters --
``ta.sorted_accesses`` et al. -- differ by strategy.

The kernel runs that algorithm at two granularities (DESIGN section
7).  :meth:`ColumnarThresholdKernel.rank_round`, the engine's route
for a round of several phrases, takes every phrase of the round through
the stages together -- stage ``s`` is a handful of array operations
over the ``(active phrases, k * 2**s)`` prefix tables -- and returns the
round's rankings as flat arrays (:class:`RankedRound`) that stage 4
prices without building a ``TopKList`` per phrase.  :meth:`ColumnarThresholdKernel.rank_phrase`
takes one phrase through them and is kept as its differential oracle:
same stop depths, same accesses, same floats.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.columnar import (
    ColumnarStore,
    columnar_top_k,
    segmented_top_k_picks,
)
from repro.core.topk import TopKList
from repro.errors import InvalidPlanError
from repro.instrument import NULL, Collector, names as metric_names


__all__ = ["ColumnarThresholdKernel", "RankedRound"]


class RankedRound:
    """A round's rankings, as flat arrays.

    What every ranking backend hands stage 4 of
    :class:`repro.engine.pipeline.SharedAuctionEngine` (this kernel's
    :meth:`ColumnarThresholdKernel.rank_round` among them): every
    phrase's ranked entries laid end to end in (phrase, rank) order,
    with the two values pricing needs -- its
    ``c_i^q`` for that phrase and its effective bid ``b̂``.  No
    :class:`~repro.core.topk.TopKList` is built from it.

    Attributes:
        phrases: The round's phrases, in the order they were ranked.
        k: Ranking capacity.
        lens: int64 entries per phrase (``min(k, members)``).
        scores: float64 scores, best first within a phrase.
        ids: int64 advertiser ids, parallel to ``scores``.
        c: float64 ``c_i^q`` of each entry for its phrase
            (:meth:`Advertiser.ctr_factor_for`).
        bids: float64 effective bid ``b̂`` (cents) of each entry.
    """

    __slots__ = ("phrases", "k", "lens", "scores", "ids", "c", "bids")

    def __init__(
        self, phrases: Sequence[str], k: int, lens, scores, ids, c, bids,
    ) -> None:
        self.phrases = tuple(phrases)
        self.k = k
        self.lens = lens
        self.scores = scores
        self.ids = ids
        self.c = c
        self.bids = bids

    @property
    def arrays(self):
        """``(lens, scores, ids, c, bids)``."""
        return self.lens, self.scores, self.ids, self.c, self.bids


class ColumnarThresholdKernel:
    """Per-round shared bid presort + vectorized TA.

    :meth:`rank_round` runs TA for every phrase of a round in lockstep
    array stages and is what the engine calls for a round of two or
    more phrases (a round of one is a plain scan).  :meth:`rank_phrase` runs it for one phrase -- the same
    rankings, accesses and ``ta.*`` counts -- and stays as the
    differential oracle the tests hold ``rank_round`` to.

    The kernel holds no copy of phrase membership or CTR order: both
    methods read the store's cell-aligned columns every round.

    Args:
        store: The columnar population.
        k: Ranking capacity (the engine passes ``slots + 1``).
        collector: Receives the ``ta.*`` counters (runs, sorted
            accesses, random accesses, stages, stop depth), so
            shared-sort work tables keep reporting through the same
            names.
    """

    def __init__(
        self,
        store: ColumnarStore,
        k: int,
        collector: Collector = NULL,
    ) -> None:
        if k <= 0:
            raise InvalidPlanError(f"k must be positive, got {k}")
        self.store = store
        self.k = k
        self.collector = collector
        self._order: Optional["np.ndarray"] = None
        self._effective_by_row: Optional["np.ndarray"] = None
        # rank_phrase's scratch, row -> position within the current
        # phrase's row list.
        self._position_of_row = np.zeros(store.size, dtype=np.int64)

    def begin_round(self, effective_by_row, rows) -> int:
        """Compute the round's shared descending-bid order.

        One lexsort over the occurring rows, shared by every phrase of
        the round -- the work the object path spends instantiating and
        pulling the merge network.

        Args:
            effective_by_row: Full-length float64 effective bids in
                cents (only ``rows`` entries are meaningful).
            rows: The round's occurring row indices (ascending).

        Returns:
            The number of rows materialized into the shared order --
            the engine reports it as the round's shared-sort work.
        """
        self._effective_by_row = effective_by_row
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

        The round's (phrase, member) *cells* are one boolean compress of
        the store's phrase CSR (:meth:`ColumnarStore.phrase_cells`), and
        their ``c_i^q`` and CTR lists compress by the same mask; the
        phrases run as segments in the store's phrase order and every
        per-phrase output comes back in the caller's.  One ``argsort``
        of ``segment * size + shared_rank[row]`` yields every phrase's
        bid list at once (the batched form of :meth:`rank_phrase`'s
        ``order[membership[order]]``; ranks of rows outside the round
        are never read).
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
            InvalidPlanError: If called before :meth:`begin_round`, if
                a phrase repeats, or if a phrase has a member row the
                round's shared order does not hold.
        """
        if self._order is None or self._effective_by_row is None:
            raise InvalidPlanError("rank_round before begin_round")
        store = self.store
        k = self.k
        order = self._order
        effective = self._effective_by_row
        count = len(phrases)
        positions = store.phrase_positions(phrases)
        # The TA stages run over segments, one per phrase with members,
        # in the store's phrase order; `phrase_at` names each segment's
        # phrase in the caller's order, which every per-phrase output
        # (lens, accesses) follows.
        listed = np.flatnonzero(positions >= 0)
        occurring, in_round = store.phrase_cells(positions[listed])
        if occurring.sum() != len(listed):
            raise InvalidPlanError(f"a phrase repeats in {list(phrases)!r}")
        phrase_at = listed[np.argsort(positions[listed])]
        sizes = store.phrase_lens[occurring]
        depth = np.zeros(count, dtype=np.int64)
        if not len(listed):
            no_ints = np.zeros(0, dtype=np.int64)
            no_floats = np.zeros(0, dtype=np.float64)
            return (
                RankedRound(
                    phrases, k, np.zeros(count, dtype=np.int64), no_floats,
                    no_ints, no_floats, no_floats,
                ),
                depth,
            )
        starts = np.cumsum(sizes) - sizes
        # One compress of each cell-aligned column: entry starts[s] + j
        # is the j-th of segment s's members, c_i^q and CTR list (which
        # holds positions within the phrase).
        cell_rows = store.cell_rows[in_round]
        cell_c = store.cell_ctrs(occurring)[in_round]
        ctr_list = store.cell_ctr_rank_positions(occurring)[in_round]
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
        segments = len(sizes)
        bid_key = np.repeat(np.arange(segments) * len(order), sizes) + cell_rank
        bid_list = np.argsort(bid_key)

        stages = np.zeros(count, dtype=np.int64)
        seen = np.zeros(count, dtype=np.int64)
        kept_cells = []
        kept_scores = []
        kept_phrases = []
        active = np.arange(segments)
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
            leaving = phrase_at[leaving]
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
            collector.incr(metric_names.TA_RUNS, segments)
            collector.incr(
                metric_names.TA_SORTED_ACCESSES, int(sorted_accesses.sum())
            )
            collector.incr(metric_names.TA_RANDOM_ACCESSES, int(seen.sum()))
            collector.incr(metric_names.TA_STAGES, int(stages.sum()))
            collector.gauge(metric_names.TA_STOP_DEPTH, int(depth[listed[-1]]))
        return (
            RankedRound(
                phrases,
                k,
                lens,
                candidate_scores[picked],
                candidate_ids[picked],
                cell_c[candidates[picked]],
                effective[candidate_rows[picked]],
            ),
            sorted_accesses,
        )
