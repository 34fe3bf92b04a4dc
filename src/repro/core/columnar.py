"""Struct-of-arrays advertiser store.

Per-object Python loops over :class:`repro.core.advertiser.Advertiser`
instances are the dominant cost under the cached hot paths (ROADMAP
item 2): every round the engine re-reads ``bid`` / ``ctr_factor`` /
``daily_budget`` attribute-by-attribute, advertiser-by-advertiser.
:class:`ColumnarStore` transposes the population once into numpy columns
-- advertiser ids, bid cents, CTR factors, budget cents -- plus
phrase membership as one CSR of member rows, so the hot kernels become
whole-array operations:

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

from itertools import chain, repeat
from typing import Dict, List, Sequence, Set, Tuple

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

    Phrase membership is one CSR over the phrases, sorted
    (:meth:`phrases`): phrase ``p`` owns the *cells* ``phrase_starts[p]``
    to ``phrase_starts[p] + phrase_lens[p]`` of :attr:`cell_rows`, its
    member rows ascending.  :meth:`phrase_rows` is a read-only view of
    those cells, and a round's cells are one boolean compress of
    :attr:`cell_rows` (:meth:`phrase_cells`).  ``c_i^q``
    (:meth:`phrase_ctr`) and the CTR-sorted positions
    (:meth:`phrase_ctr_rank_positions`) are two more cell-aligned
    columns, each filled for a phrase the first time a read asks for it,
    so construction does not pay for them.  Membership never changes
    after construction; the packed bitmaps (:meth:`membership_bits`,
    the compact interchange form) are cached per phrase on first use.

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
        members: Dict[str, List[int]] = {}
        for row, advertiser in enumerate(ordered):
            for phrase in advertiser.phrases:
                members.setdefault(phrase, []).append(row)
        self._phrase_names = sorted(members)
        self._phrase_at: Dict[str, int] = {
            phrase: at for at, phrase in enumerate(self._phrase_names)
        }
        count = len(self._phrase_names)
        self.phrase_lens = np.fromiter(
            (len(members[phrase]) for phrase in self._phrase_names),
            np.int64,
            count,
        )
        ends = np.cumsum(self.phrase_lens)
        self.phrase_starts = ends - self.phrase_lens
        self._bounds = list(zip(self.phrase_starts.tolist(), ends.tolist()))
        cells = int(ends[-1]) if count else 0
        self.cell_rows = np.fromiter(
            chain.from_iterable(map(members.__getitem__, self._phrase_names)),
            np.int64,
            cells,
        )
        self._overrides_of: Dict[int, Dict[str, float]] = {
            a.advertiser_id: dict(a.phrase_ctr_factors) for a in ordered
        }
        self._overridden = np.fromiter(
            (bool(a.phrase_ctr_factors) for a in ordered), bool, len(ordered)
        )
        self._cell_ctrs = np.zeros(cells, dtype=np.float64)
        self._cell_ctr_ranks = np.zeros(cells, dtype=np.int64)
        self._ctrs_filled = np.zeros(count, dtype=bool)
        self._ranks_filled = np.zeros(count, dtype=bool)
        for column in (
            self.phrase_lens, self.phrase_starts, self.cell_rows,
            self._cell_ctrs, self._cell_ctr_ranks,
        ):
            column.flags.writeable = False
        self._build_columns(ordered)
        self._phrase_masks: Dict[str, "np.ndarray"] = {}
        self._phrase_bits: Dict[str, "np.ndarray"] = {}

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
        """Every phrase with at least one interested advertiser, sorted:
        the phrase order of the CSR."""
        return list(self._phrase_names)

    def phrase_positions(self, phrases: Sequence[str]) -> "np.ndarray":
        """Each phrase's index into :meth:`phrases` (``-1`` for a phrase
        nobody bids on)."""
        return np.fromiter(
            map(self._phrase_at.get, phrases, repeat(-1)),
            np.int64,
            len(phrases),
        )

    def phrase_cells(self, positions) -> Tuple["np.ndarray", "np.ndarray"]:
        """The phrases at ``positions`` (indices into :meth:`phrases`) as
        ``(occurring, cells)``: a mask over the phrases, and the mask
        ``np.repeat(occurring, phrase_lens)`` over :attr:`cell_rows`.

        ``cell_rows[cells]`` is every such phrase's rows laid end to end
        in phrase order, one boolean compress; the cell-aligned columns
        (:meth:`cell_ctrs`, :meth:`cell_ctr_rank_positions`) compress by
        the same mask.
        """
        occurring = np.zeros(len(self._phrase_names), dtype=bool)
        occurring[positions] = True
        return occurring, np.repeat(occurring, self.phrase_lens)

    def phrase_rows(self, phrase: str) -> "np.ndarray":
        """Ascending row indices of the phrase's interested advertisers
        (none for a phrase nobody bids on): a read-only view of its
        cells."""
        at = self._phrase_at.get(phrase)
        if at is None:
            return _NO_ROWS
        start, end = self._bounds[at]
        return self.cell_rows[start:end]

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
        """``c_i^q`` for the phrase's rows (parallel to ``phrase_rows``):
        a read-only view of :meth:`cell_ctrs`.

        The phrase-independent factor column with the advertiser's
        per-phrase override applied where present -- exactly
        :meth:`Advertiser.ctr_factor_for`, vectorized.
        """
        at = self._phrase_at.get(phrase)
        if at is None:
            return _NO_FACTORS
        if not self._ctrs_filled[at]:
            self.cell_ctrs(self.phrase_cells([at])[0])
        start, end = self._bounds[at]
        return self._cell_ctrs[start:end]

    def phrase_ctr_rank_positions(self, phrase: str) -> "np.ndarray":
        """The phrase's CTR-sorted list, as positions into ``phrase_rows``.

        Descending ``c_i^q``, ties by ascending id: the TA kernel walks
        it as its CTR-sorted list (Section III treats CTR factors as
        recalculated only occasionally, so the presort is kept).
        Positions rather than rows, because every per-phrase array --
        ``phrase_rows``, ``phrase_ctr`` -- is indexed by them, for one
        phrase or for a round's phrases laid end to end.  A read-only
        view of :meth:`cell_ctr_rank_positions`.
        """
        at = self._phrase_at.get(phrase)
        if at is None:
            return _NO_ROWS
        if not self._ranks_filled[at]:
            self.cell_ctr_rank_positions(self.phrase_cells([at])[0])
        start, end = self._bounds[at]
        return self._cell_ctr_ranks[start:end]

    def cell_ctrs(self, occurring) -> "np.ndarray":
        """The ``c_i^q`` column over every cell, filled for (at least)
        the phrases ``occurring`` marks; read-only.

        A phrase is filled the first time a read asks for it: a gather
        of ``ctr_factors``, then an override lookup for each member
        that has any overrides (none on a market without them).
        """
        fresh = occurring & ~self._ctrs_filled
        if fresh.any():
            cells = np.repeat(fresh, self.phrase_lens)
            rows = self.cell_rows[cells]
            factors = self.ctr_factors[rows]
            odd = np.flatnonzero(self._overridden[rows])
            if len(odd):
                lens = self.phrase_lens[fresh]
                phrase_of = np.repeat(np.flatnonzero(fresh), lens)[odd]
                names, overrides_of = self._phrase_names, self._overrides_of
                for position, advertiser_id, at in zip(
                    odd.tolist(),
                    self.ids[rows[odd]].tolist(),
                    phrase_of.tolist(),
                ):
                    override = overrides_of[advertiser_id].get(names[at])
                    if override is not None:
                        factors[position] = override
            _fill(self._cell_ctrs, cells, factors)
            self._ctrs_filled |= fresh
        return self._cell_ctrs

    def cell_ctr_rank_positions(self, occurring) -> "np.ndarray":
        """The CTR-sorted positions column over every cell (cell
        ``phrase_starts[p] + j`` holds the position within phrase ``p``
        of its ``j``-th entry), filled for (at least) the phrases
        ``occurring`` marks -- every fresh phrase in one lexsort;
        read-only."""
        fresh = occurring & ~self._ranks_filled
        if fresh.any():
            factors = self.cell_ctrs(fresh)
            cells = np.flatnonzero(np.repeat(fresh, self.phrase_lens))
            lens = self.phrase_lens[fresh]
            segment = np.repeat(np.arange(len(lens)), lens)
            order = np.lexsort(
                (self.ids[self.cell_rows[cells]], -factors[cells], segment)
            )
            _fill(
                self._cell_ctr_ranks,
                cells,
                order - np.repeat(np.cumsum(lens) - lens, lens),
            )
            self._ranks_filled |= fresh
        return self._cell_ctr_ranks


_NO_ROWS = np.zeros(0, dtype=np.int64)
_NO_FACTORS = np.zeros(0, dtype=np.float64)
_NO_ROWS.flags.writeable = False
_NO_FACTORS.flags.writeable = False


def _fill(column, where, values) -> None:
    """Write ``values`` into read-only ``column`` at ``where``."""
    column.flags.writeable = True
    column[where] = values
    column.flags.writeable = False
