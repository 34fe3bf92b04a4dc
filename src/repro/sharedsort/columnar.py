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
against an unseen row can exist.  Rankings are byte-identical to a
scan of the phrase (its tests hold it to one); only the work counters
-- ``ta.sorted_accesses`` et al. -- differ by strategy.

The engine does not run this kernel: a round of several phrases under
``mode="shared-sort"`` is one scan of the round's cells scored with
``c_i^q``, which beat it by the clock (DESIGN section 7, EXPERIMENTS
E42).  The class stays because the benchmark of record's span table
names its methods; Section III's TA as a paper result is
:mod:`repro.sharedsort.threshold` (E7).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.columnar import ColumnarStore, columnar_top_k
from repro.core.topk import TopKList
from repro.errors import InvalidPlanError
from repro.instrument import NULL, Collector, names as metric_names


__all__ = ["ColumnarThresholdKernel", "RankedRound"]


class RankedRound:
    """A round's rankings, as flat arrays.

    What every ranking backend hands stage 4 of
    :class:`repro.engine.pipeline.SharedAuctionEngine`: every
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
    """Per-round shared bid presort + vectorized TA, one phrase at a time.

    No engine builds it (see the module docstring).  The kernel holds no
    copy of phrase membership or CTR order: :meth:`rank_phrase` reads
    the store's cell-aligned columns every round.

    Args:
        store: The columnar population.
        k: Ranking capacity (``slots + 1`` to price the last slot).
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
            The number of rows materialized into the shared order.
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
