"""Struct-of-arrays advertiser store.

Per-object Python loops over :class:`repro.core.advertiser.Advertiser`
instances are the dominant cost under the cached hot paths (ROADMAP
item 2): every round the engine re-reads ``bid`` / ``ctr_factor`` /
``daily_budget`` attribute-by-attribute, advertiser-by-advertiser.
:class:`ColumnarStore` transposes the population once into numpy columns
-- advertiser ids, bid cents, CTR factors, budget cents -- plus
per-phrase membership (row-index arrays and packed bitmaps), so the hot
kernels become whole-array operations:

- effective scoring: the closed-form throttled bid and score of every
  row stand in row space beside these columns and a round gathers them
  for its occurring rows (:class:`repro.engine.pipeline.SharedAuctionEngine`);
- per-phrase top-k: :func:`columnar_top_k` via ``np.argpartition`` with
  the exact ``(-score, advertiser_id)`` tie-break of the object path,
  and :func:`segmented_top_k_picks` for a whole round's ragged batch of
  segments in one lexsort (the shared plan's fragment and phrase
  aggregation, :mod:`repro.plans.columnar_exec`);
- TA sorted access: presorted column indices
  (:class:`repro.sharedsort.columnar.ColumnarThresholdKernel`).

The population is fixed for the store's life (the paper plans offline
over a fixed market, Section II-B): a new market is a new store.  Only
bids move, through the engine that owns the store
(:meth:`repro.engine.pipeline.SharedAuctionEngine.set_bids`).  The
round-trip property suite (``tests/core/test_columnar_roundtrip.py``)
locks the population -> columns transpose.

Float-determinism contract: the columnar kernels produce *bit-identical*
scores to the object path.  ``int64 / int64`` true division and Python
``int / int`` both produce the IEEE-754 correctly rounded float64 (all
operands here are far below 2**53), and ``effective / 100.0 *
ctr_factor`` is evaluated in the same operation order as the object
path, so the 50-seed differential against
:class:`repro.reference.ReferenceEngine` can assert byte-identical
winners, prices, and budget trajectories rather than approximate ones.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set

import numpy as np

from repro.core.advertiser import Advertiser
from repro.core.money import UNBUDGETED_CENTS, dollars_to_cents
from repro.core.topk import ScoredAdvertiser, TopKList
from repro.errors import InvalidAuctionError
from repro.instrument import NULL, Collector, names as metric_names


__all__ = [
    "ColumnarStore",
    "columnar_top_k",
    "columnar_top_k_picks",
    "segmented_top_k_picks",
]

SEGMENT_FILTER_MIN_CANDIDATES = 512
"""Candidates in a :func:`segmented_top_k_picks` batch from which it
drops those below their segment's k-th best before its lexsort.
Measured at k = 4: the filter costs about what it saves at 521
candidates in 4 segments (48 vs 46 us), and 1.1 ms instead of 11 ms at
40 000 in 264 (an uncached shared round's answer pass)."""


def columnar_top_k(
    k: int,
    scores,
    ids,
    collector: Collector = NULL,
) -> TopKList:
    """Vectorized exact top-k with the object path's tie-break.

    The :class:`~repro.core.topk.TopKList` over
    :func:`columnar_top_k_picks`: the same entries, byte-identical to
    :func:`repro.core.topk.top_k_scan`'s heap scan.

    Args:
        k: Result capacity (positive).
        scores: float64 score per row.
        ids: Parallel int64 advertiser ids; must be distinct (an
            advertiser appears at most once per phrase).
        collector: Counts one ``topk.scans`` and ``len(scores)``
            ``topk.scan_entries``, mirroring the object scan's
            accounting so work tables stay comparable with it.
    """
    selected = columnar_top_k_picks(k, scores, ids, collector)
    return TopKList.from_ranked(
        k,
        tuple(
            ScoredAdvertiser(float(scores[i]), int(ids[i]))
            for i in selected
        ),
    )


def columnar_top_k_picks(k: int, scores, ids, collector: Collector = NULL):
    """Positions of the top-k rows, best first: :func:`columnar_top_k`'s
    selection, for callers that lay many answers end to end as arrays.

    ``np.argpartition`` pulls the ``k`` best scores in O(n), then every
    row whose score ties the partition boundary joins the candidates, so
    the ``(-score, id)`` tie-break runs over *all* contenders -- the
    selection is :func:`repro.core.topk.top_k_scan`'s heap scan, not
    merely score-equivalent.  ``ids`` may be any distinct keys ordered
    as the ids are (store rows ascend with the id); the rest is as
    :func:`columnar_top_k`.
    """
    if k <= 0:
        raise InvalidAuctionError(f"k must be positive, got {k}")
    n = int(scores.shape[0])
    if collector.enabled:
        collector.incr(metric_names.TOPK_SCANS)
        collector.incr(metric_names.TOPK_SCAN_ENTRIES, n)
    if n > k:
        part = np.argpartition(-scores, k - 1)[:k]
        boundary = scores[part].min()
        candidates = np.flatnonzero(scores >= boundary)
    else:
        candidates = np.arange(n)
    order = np.lexsort((ids[candidates], -scores[candidates]))
    return candidates[order[:k]]


def segmented_top_k_picks(k: int, scores, ids, seg, seg_count: int):
    """Exact top-k of every segment of a ragged batch, in one sort.

    The batched form of :func:`columnar_top_k_picks`: ``seg[i]`` names
    the segment candidate ``i`` belongs to, and one
    ``np.lexsort((ids, -scores, seg))`` ranks every segment at once
    (over the candidates that can still rank, in a large batch); the
    first ``k`` positions of each segment's run are its answer.
    ``(-score, id)`` is a strict total order on distinct ids, so the
    answer has no dependence on input order and equals -- entry for
    entry -- both ``columnar_top_k`` on each segment and any fold of
    :func:`repro.core.topk.top_k_merge` over the segment's entries
    (``0.0`` and ``-0.0`` compare equal in both and fall to the id
    tie-break).  Callers gather whichever per-candidate columns they
    carry (the fragment executor its tables' rows, the Section III
    round kernel each candidate's row and ``c_i^q``).

    Args:
        k: Result capacity (positive).
        scores: float64 score per candidate.
        ids: Parallel int64 tie-break keys, distinct within a segment.
        seg: Parallel int64 segment index in ``[0, seg_count)``; any
            order, segments may be empty.
        seg_count: Number of segments.

    Returns:
        ``(picked, picked_seg, picked_rank, counts)``: indices into the
        batch of the candidates that rank below ``k`` in their segment,
        in (segment, rank) order -- so ``scores[picked]`` is every
        segment's answer laid end to end -- with each one's segment and
        rank, and the answer length ``min(k, segment size)`` of every
        segment.
    """
    if k <= 0:
        raise InvalidAuctionError(f"k must be positive, got {k}")
    sizes = np.bincount(seg, minlength=seg_count)
    kept = _contenders(k, scores, seg, sizes)
    if kept is not None:
        scores, ids, seg = scores[kept], ids[kept], seg[kept]
        sizes = np.bincount(seg, minlength=seg_count)
    order = np.lexsort((ids, -scores, seg))
    ranked_seg = seg[order]
    rank = np.arange(len(order)) - (np.cumsum(sizes) - sizes)[ranked_seg]
    head = rank < k
    picked = order[head] if kept is None else kept[order[head]]
    return picked, ranked_seg[head], rank[head], np.minimum(sizes, k)


def _contenders(k: int, scores, seg, sizes):
    """Positions of the candidates scoring at least their segment's k-th
    best, the only ones that can rank below ``k``; ``None`` to sort all.

    Found for a batch grouped by segment (the fragment executor's are)
    of :data:`SEGMENT_FILTER_MIN_CANDIDATES` or more: one partition per
    row of a ``(segments, widest)`` table padded with ``-inf`` -- unless
    that table would be over four times the batch.
    """
    n = len(seg)
    if n < SEGMENT_FILTER_MIN_CANDIDATES:
        return None
    widest = int(sizes.max())
    if (
        widest <= k
        or len(sizes) * widest > 4 * n
        or (seg[1:] < seg[:-1]).any()
    ):
        return None
    table = np.full((len(sizes), widest), -np.inf)
    table[seg, np.arange(n) - (np.cumsum(sizes) - sizes)[seg]] = scores
    kth = np.partition(table, widest - k, axis=1)[:, widest - k]
    return np.flatnonzero(scores >= kth[seg])


class ColumnarStore:
    """The struct-of-arrays advertiser population.

    Rows are ordered by ascending advertiser id, so any row subset
    selected by ascending row index carries ascending ids, so rows rank
    as their ids do.

    Attributes (all parallel, one row per advertiser):
        ids: int64 advertiser ids, ascending.
        bid_cents: int64 bids in cents
            (:func:`repro.core.money.dollars_to_cents` of ``bid``).
        ctr_factors: float64 phrase-independent CTR factors ``c_i``.
        budget_cents: int64 daily budgets in cents;
            :data:`UNBUDGETED_CENTS` for unlimited.

    Phrase membership is kept two ways: per-phrase *row-index arrays*
    (ascending; the form every kernel consumes) and packed *bitmaps*
    (:meth:`membership_bits`; 1 bit per row, the compact interchange
    form).  Both are caches built on first use over the phrase -> rows
    index the constructor builds; membership never changes after
    construction.

    The store has no setters; under an engine its columns are read-only
    but to :meth:`repro.engine.pipeline.SharedAuctionEngine.set_bids`.
    """

    def __init__(self, advertisers: Sequence[Advertiser] = ()) -> None:
        ordered = sorted(advertisers, key=lambda a: a.advertiser_id)
        seen: Set[int] = set()
        for advertiser in ordered:
            if advertiser.advertiser_id in seen:
                raise InvalidAuctionError(
                    f"duplicate advertiser id {advertiser.advertiser_id}"
                )
            seen.add(advertiser.advertiser_id)
        # The phrase -> member rows index, in one pass: rows ascend with
        # the id, so each list is ascending.
        self._phrase_members: Dict[str, List[int]] = {}
        for row, advertiser in enumerate(ordered):
            for phrase in advertiser.phrases:
                self._phrase_members.setdefault(phrase, []).append(row)
        self._overrides_of: Dict[int, Dict[str, float]] = {
            a.advertiser_id: dict(a.phrase_ctr_factors) for a in ordered
        }
        self._build_columns(ordered)
        self._phrase_rows: Dict[str, "np.ndarray"] = {}
        self._phrase_masks: Dict[str, "np.ndarray"] = {}
        self._phrase_bits: Dict[str, "np.ndarray"] = {}
        self._phrase_ctrs: Dict[str, "np.ndarray"] = {}
        self._phrase_ctr_orders: Dict[str, "np.ndarray"] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_advertisers(
        cls, advertisers: Sequence[Advertiser]
    ) -> "ColumnarStore":
        """Transpose an advertiser population into columns."""
        return cls(advertisers)

    def _build_columns(self, ordered: Sequence[Advertiser]) -> None:
        """Build the numeric columns from object-shaped rows."""
        n = len(ordered)
        self.ids = np.fromiter(
            (a.advertiser_id for a in ordered), dtype=np.int64, count=n
        )
        self.bid_cents = np.fromiter(
            (dollars_to_cents(a.bid) for a in ordered),
            dtype=np.int64,
            count=n,
        )
        self.ctr_factors = np.fromiter(
            (a.ctr_factor for a in ordered), dtype=np.float64, count=n
        )
        self.budget_cents = np.fromiter(
            (
                UNBUDGETED_CENTS
                if a.daily_budget == float("inf")
                else dollars_to_cents(a.daily_budget)
                for a in ordered
            ),
            dtype=np.int64,
            count=n,
        )
        self._row_of: Dict[int, int] = {
            int(advertiser_id): row
            for row, advertiser_id in enumerate(self.ids)
        }

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of rows (advertisers)."""
        return len(self.ids)

    def __len__(self) -> int:
        return self.size

    def __contains__(self, advertiser_id: int) -> bool:
        return advertiser_id in self._row_of

    def row_of(self, advertiser_id: int) -> int:
        """The row index of one advertiser."""
        row = self._row_of.get(advertiser_id)
        if row is None:
            raise InvalidAuctionError(f"unknown advertiser {advertiser_id}")
        return row

    def rows_of(self, advertiser_ids) -> "np.ndarray":
        """Vectorized id -> row translation (ids must all exist).

        Exploits the ascending-id row order: a single ``searchsorted``
        translates any id array, which is how a round's moved budget
        books and fragment member lists land in row space without a
        Python loop per entry.
        """
        wanted = np.asarray(advertiser_ids, dtype=np.int64)
        rows = np.searchsorted(self.ids, wanted)
        if len(wanted) and (
            rows.max(initial=0) >= self.size
            or not np.array_equal(self.ids[rows], wanted)
        ):
            missing = [
                int(a) for a in wanted if int(a) not in self._row_of
            ]
            raise InvalidAuctionError(f"unknown advertisers {missing!r}")
        return rows

    def phrases(self) -> List[str]:
        """Every phrase with at least one interested advertiser, sorted."""
        return sorted(self._phrase_members)

    def phrase_rows(self, phrase: str) -> "np.ndarray":
        """Ascending row indices of the phrase's interested advertisers
        (none for a phrase nobody bids on), read off the index the
        constructor built: a phrase seen for the first time costs its
        members, not the population."""
        rows = self._phrase_rows.get(phrase)
        if rows is None:
            rows = np.array(self._phrase_members.get(phrase, ()), np.int64)
            self._phrase_rows[phrase] = rows
        return rows

    def membership(self, phrase: str) -> "np.ndarray":
        """Boolean membership mask over all rows."""
        mask = self._phrase_masks.get(phrase)
        if mask is None:
            mask = np.zeros(self.size, dtype=bool)
            mask[self.phrase_rows(phrase)] = True
            self._phrase_masks[phrase] = mask
        return mask

    def membership_bits(self, phrase: str) -> "np.ndarray":
        """Packed membership bitmap (1 bit per row, ``np.packbits``)."""
        bits = self._phrase_bits.get(phrase)
        if bits is None:
            bits = np.packbits(self.membership(phrase))
            self._phrase_bits[phrase] = bits
        return bits

    def phrase_ctr(self, phrase: str) -> "np.ndarray":
        """``c_i^q`` for the phrase's rows (parallel to ``phrase_rows``).

        The phrase-independent factor column with the advertiser's
        per-phrase override applied where present -- exactly
        :meth:`Advertiser.ctr_factor_for`, vectorized.
        """
        factors = self._phrase_ctrs.get(phrase)
        if factors is None:
            rows = self.phrase_rows(phrase)
            factors = self.ctr_factors[rows]
            overrides_of = self._overrides_of
            for position, advertiser_id in enumerate(self.ids[rows].tolist()):
                override = overrides_of[advertiser_id].get(phrase)
                if override is not None:
                    factors[position] = override
            self._phrase_ctrs[phrase] = factors
        return factors

    def phrase_ctr_rank_positions(self, phrase: str) -> "np.ndarray":
        """The phrase's CTR-sorted list, as positions into ``phrase_rows``.

        Descending ``c_i^q``, ties by ascending id.  This is the
        columnar replacement for the engine's per-phrase ``_ctr_orders``
        lists: the TA kernel walks it as its CTR-sorted list (Section
        III treats CTR factors as recalculated only occasionally, so the
        presort is cached).  Positions rather than rows, because every
        per-phrase array -- ``phrase_rows``, ``phrase_ctr`` -- is
        indexed by them, for one phrase or for a round's phrases laid
        end to end.
        """
        positions = self._phrase_ctr_orders.get(phrase)
        if positions is None:
            rows = self.phrase_rows(phrase)
            positions = np.lexsort((self.ids[rows], -self.phrase_ctr(phrase)))
            self._phrase_ctr_orders[phrase] = positions
        return positions
