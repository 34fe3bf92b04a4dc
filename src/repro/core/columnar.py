"""Struct-of-arrays advertiser store with a zero-copy object view.

Per-object Python loops over :class:`repro.core.advertiser.Advertiser`
instances are the dominant cost under the cached hot paths (ROADMAP
item 2): every round the engine re-reads ``bid`` / ``ctr_factor`` /
``daily_budget`` attribute-by-attribute, advertiser-by-advertiser.
:class:`ColumnarStore` transposes the population once into numpy columns
-- advertiser ids, bid cents, bids, CTR factors, budget cents -- plus
per-phrase membership (row-index arrays and packed bitmaps), so the hot
kernels become whole-array operations:

- effective scoring: the closed-form throttled bid and score of every
  row stand in row space beside these columns and a round gathers them
  for its occurring rows (:meth:`repro.engine.pipeline.SharedAuctionEngine`
  with ``layout="columnar"``);
- per-phrase top-k: :func:`columnar_top_k` via ``np.argpartition`` with
  the exact ``(-score, advertiser_id)`` tie-break of the object path,
  and :func:`segmented_top_k_picks` for a whole round's ragged batch of
  segments in one lexsort (the shared plan's fragment and phrase
  aggregation, :mod:`repro.plans.columnar_exec`);
- TA sorted access: presorted column indices
  (:class:`repro.sharedsort.columnar.ColumnarThresholdKernel`).

The object API is preserved as a *view*: :meth:`ColumnarStore.advertiser`
returns an :class:`AdvertiserView` that duck-types ``Advertiser`` --
every attribute read goes straight to the arrays, so a mutation through
the store (:meth:`ColumnarStore.set_bid`, phrase churn) is immediately
visible through the view, and a mutation expressed as an object
(``advertiser.with_bid(...)``) round-trips into the arrays through
:meth:`ColumnarStore.absorb`.  The round-trip property suite
(``tests/core/test_columnar_roundtrip.py``) locks both directions.

Float-determinism contract: the columnar kernels produce *bit-identical*
scores to the object path.  ``int64 / int64`` true division and Python
``int / int`` both produce the IEEE-754 correctly rounded float64 (all
operands here are far below 2**53), and ``effective / 100.0 *
ctr_factor`` is evaluated in the same operation order as the object
path, so the 50-seed layout differential can assert byte-identical
winners, prices, and budget trajectories rather than approximate ones.

numpy is an install-time dependency of the package, but the columnar
layout is the only subsystem that *requires* it, so the import is
guarded: object-layout runs work on a numpy-less interpreter and only
``layout="columnar"`` raises.
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.advertiser import Advertiser
from repro.core.money import dollars_to_cents
from repro.core.topk import ScoredAdvertiser, TopKList
from repro.errors import InvalidAuctionError
from repro.instrument import NULL, Collector, names as metric_names

try:  # pragma: no cover - exercised implicitly on every import
    import numpy as np
except ImportError:  # pragma: no cover - numpy ships with the package
    np = None  # type: ignore[assignment]

__all__ = [
    "AdvertiserView",
    "ArrayScoreMap",
    "ColumnarStore",
    "columnar_top_k",
    "columnar_top_k_picks",
    "require_numpy",
    "segmented_top_k_picks",
]

UNBUDGETED_CENTS = 10**12
"""Sentinel for an unlimited budget; mirrors
:attr:`repro.engine.budget_manager.BudgetManager.UNBUDGETED_CENTS`, the
constant ``remaining_cents`` of an advertiser without a budget."""


SEGMENT_FILTER_MIN_CANDIDATES = 512
"""Candidates in a :func:`segmented_top_k_picks` batch from which it
drops those below their segment's k-th best before its lexsort.
Measured at k = 4: the filter costs about what it saves at 521
candidates in 4 segments (48 vs 46 us), and 1.1 ms instead of 11 ms at
40 000 in 264 (an uncached shared round's answer pass)."""


def require_numpy() -> None:
    """Raise a clear error when numpy is missing.

    The columnar layout is opt-in; every entry point that needs the
    arrays calls this first so a numpy-less interpreter fails with an
    actionable message instead of an ``AttributeError`` deep in a kernel.
    """
    if np is None:  # pragma: no cover - numpy ships with the package
        raise InvalidAuctionError(
            "layout='columnar' requires numpy; install numpy or run with "
            "layout='object'"
        )


class AdvertiserView:
    """Zero-copy, read-through view of one store row.

    Duck-types :class:`repro.core.advertiser.Advertiser`: same
    attributes, same methods, same id-based equality and hashing -- so
    existing callers (CTR models, auction specs, tests) keep working
    when handed a view.  Reads resolve against the store's arrays at
    access time, which is what makes store-side mutations immediately
    visible: ``store.set_bid(3, 2.5)`` changes ``view.bid`` with no
    copy and no notification.

    The view is keyed by advertiser id, not row index, so it survives
    churn that renumbers rows; reading a view whose advertiser left the
    market raises :class:`repro.errors.InvalidAuctionError`.

    ``with_bid`` / ``with_phrases`` return plain frozen ``Advertiser``
    copies (the object API's contract is value semantics); feed them
    back through :meth:`ColumnarStore.absorb` to make the mutation
    visible in the arrays -- the round-trip the property suite checks.
    """

    __slots__ = ("_store", "advertiser_id")

    def __init__(self, store: "ColumnarStore", advertiser_id: int) -> None:
        self._store = store
        self.advertiser_id = advertiser_id

    @property
    def _row(self) -> int:
        row = self._store._row_of.get(self.advertiser_id)
        if row is None:
            raise InvalidAuctionError(
                f"advertiser {self.advertiser_id} left the market"
            )
        return row

    @property
    def bid(self) -> float:
        return float(self._store.bids[self._row])

    @property
    def ctr_factor(self) -> float:
        return float(self._store.ctr_factors[self._row])

    @property
    def daily_budget(self) -> float:
        cents = int(self._store.budget_cents[self._row])
        if cents == UNBUDGETED_CENTS:
            return float("inf")
        return cents / 100.0

    @property
    def phrases(self) -> FrozenSet[str]:
        return frozenset(self._store._phrases_of[self.advertiser_id])

    @property
    def phrase_ctr_factors(self) -> Mapping[str, float]:
        return dict(self._store._overrides_of[self.advertiser_id])

    def ctr_factor_for(self, phrase: str) -> float:
        return self._store._overrides_of[self.advertiser_id].get(
            phrase, self.ctr_factor
        )

    def score(self, phrase: Optional[str] = None) -> float:
        factor = (
            self.ctr_factor if phrase is None else self.ctr_factor_for(phrase)
        )
        return self.bid * factor

    def interested_in(self, phrase: str) -> bool:
        return phrase in self._store._phrases_of[self.advertiser_id]

    def with_bid(self, bid: float) -> Advertiser:
        return self.materialize().with_bid(bid)

    def with_phrases(self, phrases: Iterable[str]) -> Advertiser:
        return self.materialize().with_phrases(phrases)

    def materialize(self) -> Advertiser:
        """An independent plain :class:`Advertiser` snapshot of this row."""
        return Advertiser(
            advertiser_id=self.advertiser_id,
            bid=self.bid,
            ctr_factor=self.ctr_factor,
            daily_budget=self.daily_budget,
            phrases=self.phrases,
            phrase_ctr_factors=dict(self.phrase_ctr_factors),
        )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (AdvertiserView, Advertiser)):
            return self.advertiser_id == other.advertiser_id
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.advertiser_id)

    def __repr__(self) -> str:
        return (
            f"AdvertiserView(id={self.advertiser_id}, bid={self.bid:g}, "
            f"ctr={self.ctr_factor:g})"
        )


class ArrayScoreMap(Mapping):
    """Read-only ``Mapping[int, float]`` over parallel (ids, values) arrays.

    The columnar scoring stage produces its results as two arrays -- the
    occurring advertiser ids (ascending) and their values -- but the
    object-path consumers (the plan executor, the shared merge-sort
    network, GSP pricing) expect a mapping.  This adapter
    serves them without materializing a dict: ``__getitem__`` is a
    binary search, iteration and ``items()`` stream straight off the
    arrays.

    Args:
        ids: Strictly ascending int64 advertiser ids.
        values: Parallel float64 values.
    """

    __slots__ = ("_ids", "_values")

    def __init__(self, ids, values) -> None:
        require_numpy()
        if len(ids) != len(values):
            raise InvalidAuctionError("ids and values must be parallel")
        self._ids = ids
        self._values = values

    def __getitem__(self, key: int) -> float:
        position = int(np.searchsorted(self._ids, key))
        if position == len(self._ids) or int(self._ids[position]) != key:
            raise KeyError(key)
        return float(self._values[position])

    def get(self, key: int, default=None):
        position = int(np.searchsorted(self._ids, key))
        if position == len(self._ids) or int(self._ids[position]) != key:
            return default
        return float(self._values[position])

    def __contains__(self, key: object) -> bool:
        if not isinstance(key, int):
            return False
        position = int(np.searchsorted(self._ids, key))
        return position < len(self._ids) and int(self._ids[position]) == key

    def __iter__(self):
        return (int(i) for i in self._ids)

    def __len__(self) -> int:
        return len(self._ids)

    def items(self):
        return (
            (int(i), float(v)) for i, v in zip(self._ids, self._values)
        )

    def __repr__(self) -> str:
        return f"ArrayScoreMap({len(self._ids)} entries)"


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
            accounting so work tables stay comparable across layouts.
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
    require_numpy()
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
    require_numpy()
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
    selected by ascending row index carries ascending ids -- which is
    what lets :class:`ArrayScoreMap` binary-search.

    Attributes (all parallel, one row per advertiser):
        ids: int64 advertiser ids, ascending.
        bid_cents: int64 bids in cents
            (:func:`repro.core.money.dollars_to_cents` of ``bid``).
        bids: float64 bids in dollars.
        ctr_factors: float64 phrase-independent CTR factors ``c_i``.
        budget_cents: int64 daily budgets in cents;
            :data:`UNBUDGETED_CENTS` for unlimited.

    Phrase membership is kept two ways: per-phrase *row-index arrays*
    (ascending; the form every kernel consumes) and packed *bitmaps*
    (:meth:`membership_bits`; 1 bit per row, the compact interchange
    form).  Both are derived caches over the authoritative
    ``{advertiser: phrases}`` sets and are invalidated on churn.

    Mutations go through the store (:meth:`set_bid`, :meth:`set_budget`,
    :meth:`add_interest`, :meth:`remove_interest`, :meth:`absorb`,
    :meth:`add_advertiser`, :meth:`remove_advertiser`); views observe
    them instantly.  Structural churn (advertisers entering/leaving)
    renumbers rows and drops every derived cache.
    """

    def __init__(self, advertisers: Sequence[Advertiser] = ()) -> None:
        require_numpy()
        ordered = sorted(advertisers, key=lambda a: a.advertiser_id)
        seen: Set[int] = set()
        for advertiser in ordered:
            if advertiser.advertiser_id in seen:
                raise InvalidAuctionError(
                    f"duplicate advertiser id {advertiser.advertiser_id}"
                )
            seen.add(advertiser.advertiser_id)
        self._phrases_of: Dict[int, Set[str]] = {
            a.advertiser_id: set(a.phrases) for a in ordered
        }
        self._overrides_of: Dict[int, Dict[str, float]] = {
            a.advertiser_id: dict(a.phrase_ctr_factors) for a in ordered
        }
        self._rebuild_columns(ordered)
        self._drop_derived()

    # ------------------------------------------------------------------
    # construction / column maintenance
    # ------------------------------------------------------------------
    @classmethod
    def from_advertisers(
        cls, advertisers: Sequence[Advertiser]
    ) -> "ColumnarStore":
        """Transpose an advertiser population into columns."""
        return cls(advertisers)

    def _rebuild_columns(self, ordered: Sequence[Advertiser]) -> None:
        """(Re)build the numeric columns from object-shaped rows."""
        n = len(ordered)
        self.ids = np.fromiter(
            (a.advertiser_id for a in ordered), dtype=np.int64, count=n
        )
        self.bids = np.fromiter(
            (a.bid for a in ordered), dtype=np.float64, count=n
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

    def _rebuild_from_objects(self) -> None:
        """Renumber rows after structural churn (add/remove advertiser)."""
        ordered = [
            self._materialize_id(advertiser_id)
            for advertiser_id in sorted(self._phrases_of)
        ]
        self._rebuild_columns(ordered)
        self._drop_derived()

    def _materialize_id(self, advertiser_id: int) -> Advertiser:
        row = self._row_of.get(advertiser_id)
        if row is None:
            raise InvalidAuctionError(f"unknown advertiser {advertiser_id}")
        return self.advertiser(advertiser_id).materialize()

    def _drop_derived(self) -> None:
        self._phrase_members: Optional[Dict[str, List[int]]] = None
        self._phrase_rows: Dict[str, "np.ndarray"] = {}
        self._phrase_masks: Dict[str, "np.ndarray"] = {}
        self._phrase_bits: Dict[str, "np.ndarray"] = {}
        self._phrase_ctrs: Dict[str, "np.ndarray"] = {}
        self._phrase_ctr_orders: Dict[str, "np.ndarray"] = {}

    def _invalidate_phrase(self, phrase: str) -> None:
        """Drop one phrase's derived arrays (membership or CTRs moved)."""
        if self._phrase_members is not None:
            self._phrase_members.pop(phrase, None)
        self._phrase_rows.pop(phrase, None)
        self._phrase_masks.pop(phrase, None)
        self._phrase_bits.pop(phrase, None)
        self._phrase_ctrs.pop(phrase, None)
        self._phrase_ctr_orders.pop(phrase, None)

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

    def advertiser(self, advertiser_id: int) -> AdvertiserView:
        """The zero-copy object view of one advertiser."""
        if advertiser_id not in self._row_of:
            raise InvalidAuctionError(f"unknown advertiser {advertiser_id}")
        return AdvertiserView(self, advertiser_id)

    def views(self) -> Tuple[AdvertiserView, ...]:
        """Views of every advertiser, ascending id order."""
        return tuple(
            AdvertiserView(self, int(advertiser_id))
            for advertiser_id in self.ids
        )

    def phrases(self) -> List[str]:
        """Every phrase with at least one interested advertiser, sorted."""
        alive: Set[str] = set()
        for phrases in self._phrases_of.values():
            alive |= phrases
        return sorted(alive)

    def phrase_rows(self, phrase: str) -> "np.ndarray":
        """Ascending row indices of the phrase's interested advertisers."""
        rows = self._phrase_rows.get(phrase)
        if rows is None:
            rows = self.rows_of(self._members_of(phrase))
            self._phrase_rows[phrase] = rows
        return rows

    def _members_of(self, phrase: str) -> List[int]:
        """Ascending ids of the phrase's interested advertisers.

        Read off a phrase -> members inverted index, built in one pass
        over every advertiser's phrase set the first time any phrase is
        asked for, so a phrase seen for the first time costs its members
        and not the population.  Churn drops the entry of a phrase it
        touches (:meth:`_invalidate_phrase`); that phrase alone is
        re-read from the phrase sets.
        """
        index = self._phrase_members
        if index is None:
            index = self._phrase_members = {}
            for advertiser_id in sorted(self._phrases_of):
                for member_phrase in self._phrases_of[advertiser_id]:
                    index.setdefault(member_phrase, []).append(advertiser_id)
        members = index.get(phrase)
        if members is None:
            members = index[phrase] = sorted(
                advertiser_id
                for advertiser_id, phrases in self._phrases_of.items()
                if phrase in phrases
            )
        return members

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
            factors = self.ctr_factors[rows].copy()
            for position, row in enumerate(rows):
                advertiser_id = int(self.ids[row])
                override = self._overrides_of[advertiser_id].get(phrase)
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

    # ------------------------------------------------------------------
    # mutations
    # ------------------------------------------------------------------
    def set_bid(self, advertiser_id: int, bid: float) -> None:
        """Change one advertiser's bid in place (views see it instantly)."""
        if bid < 0.0:
            raise InvalidAuctionError(f"bid must be non-negative, got {bid!r}")
        row = self.row_of(advertiser_id)
        self.bids[row] = bid
        self.bid_cents[row] = dollars_to_cents(bid)

    def set_budget(self, advertiser_id: int, daily_budget: float) -> None:
        """Change one advertiser's daily budget in place."""
        if daily_budget < 0.0:
            raise InvalidAuctionError("daily_budget must be non-negative")
        row = self.row_of(advertiser_id)
        self.budget_cents[row] = (
            UNBUDGETED_CENTS
            if daily_budget == float("inf")
            else dollars_to_cents(daily_budget)
        )

    def add_interest(self, advertiser_id: int, phrase: str) -> None:
        """Add ``advertiser_id`` to a phrase's membership."""
        self.row_of(advertiser_id)
        self._phrases_of[advertiser_id].add(phrase)
        self._invalidate_phrase(phrase)

    def remove_interest(self, advertiser_id: int, phrase: str) -> None:
        """Remove ``advertiser_id`` from a phrase's membership."""
        self.row_of(advertiser_id)
        self._phrases_of[advertiser_id].discard(phrase)
        self._overrides_of[advertiser_id].pop(phrase, None)
        self._invalidate_phrase(phrase)

    def absorb(self, advertiser: Advertiser) -> None:
        """Adopt an object-side mutation into the arrays.

        The inverse direction of the view: callers that produced a new
        value through the frozen object API (``with_bid``,
        ``with_phrases``, a rebuilt ``Advertiser``) push it back here.
        An unknown advertiser is added; a known one has its columns,
        phrase memberships, and per-phrase overrides synchronized.
        """
        advertiser_id = advertiser.advertiser_id
        if advertiser_id not in self._row_of:
            self.add_advertiser(advertiser)
            return
        row = self._row_of[advertiser_id]
        self.bids[row] = advertiser.bid
        self.bid_cents[row] = dollars_to_cents(advertiser.bid)
        self.ctr_factors[row] = advertiser.ctr_factor
        self.budget_cents[row] = (
            UNBUDGETED_CENTS
            if advertiser.daily_budget == float("inf")
            else dollars_to_cents(advertiser.daily_budget)
        )
        before = self._phrases_of[advertiser_id]
        after = set(advertiser.phrases)
        for phrase in before ^ after:
            self._invalidate_phrase(phrase)
        # CTR factor / override changes move the cached per-phrase CTR
        # arrays of every phrase the advertiser stays in.
        for phrase in before & after:
            self._invalidate_phrase(phrase)
        self._phrases_of[advertiser_id] = after
        self._overrides_of[advertiser_id] = dict(
            advertiser.phrase_ctr_factors
        )

    def add_advertiser(self, advertiser: Advertiser) -> None:
        """Add a new row (renumbers rows; derived caches drop)."""
        if advertiser.advertiser_id in self._row_of:
            raise InvalidAuctionError(
                f"duplicate advertiser id {advertiser.advertiser_id}"
            )
        self._phrases_of[advertiser.advertiser_id] = set(advertiser.phrases)
        self._overrides_of[advertiser.advertiser_id] = dict(
            advertiser.phrase_ctr_factors
        )
        ordered = sorted(
            [
                *(
                    self.advertiser(int(i)).materialize()
                    for i in self.ids
                ),
                advertiser,
            ],
            key=lambda a: a.advertiser_id,
        )
        self._rebuild_columns(ordered)
        self._drop_derived()

    def remove_advertiser(self, advertiser_id: int) -> None:
        """Drop a row (renumbers rows; derived caches drop)."""
        self.row_of(advertiser_id)
        ordered = [
            self.advertiser(int(i)).materialize()
            for i in self.ids
            if int(i) != advertiser_id
        ]
        del self._phrases_of[advertiser_id]
        del self._overrides_of[advertiser_id]
        self._rebuild_columns(ordered)
        self._drop_derived()
