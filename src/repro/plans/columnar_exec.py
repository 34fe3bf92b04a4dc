"""Fragment-level columnar execution of shared aggregation rounds.

The object-path :class:`repro.plans.executor.PlanExecutor` answers each
round by walking the greedy plan DAG, one
:class:`~repro.core.topk.TopKList` per operator node.  With the
population in a :class:`repro.core.columnar.ColumnarStore` the sharing
structure is held as arrays and a round is two calls of one kernel,
:func:`repro.core.columnar.segmented_top_k_picks` (DESIGN section 18):

1. every needed dirty *fragment* (Section II-D.1 equivalence class of
   advertisers occurring in the same queries) is top-k'd **once**: the
   member rows of all of them form one ragged batch, segmented by
   fragment, and the kernel writes each fragment's k best
   ``(score, row)`` into its row of one ``(F, k)`` table;
2. every requested query whose answer is stale is the top-k of its
   fragments' table rows: those rows form a second ragged batch,
   segmented by query, and the same kernel writes all of their answers
   at once into their rows of a ``(Q, k)`` answer table.

The answers leave as one gather of the requested rows of that table
(:meth:`ColumnarFragmentExecutor.answer`), which the engine prices as
they are.  The tables hold store rows, not ids: rows ascend with the
id, so ``(-score, row)`` ranks as ``(-score, id)``, and pricing needs
the rows.

Exact because fragments partition a query's variable set, the top-k of
a union is the top-k of the parts' top-k lists (axioms A1-A4), and
``(-score, id)`` is a strict total order -- one lexsort returns, entry
for entry, what any chain of binary
:func:`~repro.core.topk.top_k_merge` calls over the same lists returns.
The paper's sharing is kept (a fragment shared by ten queries is
scanned once, not ten times); the greedy plan above fragments is never
built.  A trivial (single-variable) query is a one-row fragment of its
own covering only itself, so it takes the same path.

The incidence is CSR offset/index pairs built once with array ops:
fragment -> member rows and query -> covering fragments, plus the
transposes row -> fragments and fragment -> queries, which carry
invalidation (a dirty row dirties its fragments; a newly dirty fragment
makes every query it covers stale).

Cross-round caching (``exec_cache=True``, ``cross_round=True``) keeps
both tables and the ``dirty`` / ``stale`` bits between rounds, plus a
last-seen score column, a seen mask and per-row epochs.  Invalidation
is the executor's own score diff: one vectorized compare of the round's
scored rows against the snapshot, a row being dirty on first sight or
when its score moved.  It needs no outside
notice of who moved -- every row a round reads is compared, so no
declaration could add a row and none may remove one.  A query whose
``stale`` bit is clear is answered from its row of the answer table as
it stands; a round in which nothing requested is stale calls the kernel
zero times.  Without ``cross_round`` the same routine runs over scratch
tables in which everything is dirty.  ``run_round``, the ``TopKList``
face of the library and the tests, builds its lists from the same
gather: the answer table is the only answer store.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, chain
from typing import Dict, Sequence

from repro.core.columnar import (
    ColumnarStore,
    require_numpy,
    segmented_top_k_picks,
)
from repro.core.topk import ScoredAdvertiser, TopKList
# Not called here any more: benchmarks/e2e/spans.py::TARGETS patches both
# names in this module's namespace (tests/engine/test_span_targets.py).
from repro.core.columnar import columnar_top_k  # noqa: F401
from repro.core.topk import top_k_merge  # noqa: F401
from repro.errors import InvalidPlanError
from repro.instrument import NULL, Collector, names as metric_names
from repro.plans.fragments import identify_fragments
from repro.plans.instance import SharedAggregationInstance

try:  # pragma: no cover - numpy ships with the package
    import numpy as np
except ImportError:  # pragma: no cover
    np = None  # type: ignore[assignment]

__all__ = ["ColumnarExecResult", "ColumnarFragmentExecutor"]


@dataclass
class ColumnarExecResult:
    """One round's answers and work, mirroring ``ExecutionResult``.

    Attributes:
        lens: int64 answer length of every requested query, in request
            order (``min(k, members)``).
        scores: float64 scores of the answers laid end to end, best
            first within a query.
        rows: int64 store rows, parallel to ``scores``.
        answers: ``{query name: TopKList}``, built from the arrays by
            ``run_round`` only.
        merges_performed: Fragment lists combined beyond the first,
            summed over the queries re-aggregated this round (what a
            binary merge chain would perform; from CSR cover lengths).
        advertisers_scanned: Rows read by fragment materializations
            (each needed fragment is scanned exactly once per round --
            the sharing the paper's cost model counts).
        nodes_reused: Cross-round mode only: cover touches of fragment /
            trivial-leaf lists served without a scan (no dirty member).
        nodes_invalidated: Cross-round mode only: resident cached
            fragments newly marked dirty by this round's dirty rows.
        nodes_revalidated: Cross-round mode only: merges skipped
            because no fragment of the query changed since it was last
            answered, so its cached answer was handed back.
        candidates_gathered: ``(score, id)`` candidates handed to
            :func:`~repro.core.columnar.segmented_top_k_picks` -- rows of
            refreshed fragments plus table cells of re-aggregated
            queries; zero on a round that replays every answer.
    """

    lens: "np.ndarray"
    scores: "np.ndarray"
    rows: "np.ndarray"
    answers: Dict[str, TopKList] = field(default_factory=dict)
    merges_performed: int = 0
    advertisers_scanned: int = 0
    nodes_reused: int = 0
    nodes_invalidated: int = 0
    nodes_revalidated: int = 0
    candidates_gathered: int = 0


def _csr(keys, values, size: int):
    """``(ptr, idx)`` grouping ``values`` by ``keys`` in ``[0, size)``."""
    ptr = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=size), out=ptr[1:])
    return ptr, values[np.argsort(keys, kind="stable")]


def _ranges(starts, lens):
    """Positions of the concatenated ranges ``[start, start + len)``.

    Returns ``(positions, seg)``: every range's positions in range
    order, and for each the index of the range it came from.
    """
    ends = np.cumsum(lens)
    total = int(ends[-1]) if len(ends) else 0
    seg = np.repeat(np.arange(len(lens)), lens)
    return np.arange(total) + np.repeat(starts - ends + lens, lens), seg


def _gather(csr, keys):
    """``(values, seg)``: the CSR rows of ``keys``, concatenated."""
    ptr, idx = csr
    starts = ptr[keys]
    positions, seg = _ranges(starts, ptr[keys + 1] - starts)
    return idx[positions], seg


class _Tables:
    """Fragment top-k table and query answer table: one aggregation state.

    ``scores`` / ``rows`` hold each fragment's best-first top-k of
    ``(score, store row)`` in a row (``lens`` cells live), the
    ``answer_*`` arrays each query's answer; ``dirty`` marks fragments
    and ``stale`` queries whose row no longer reflects their inputs.
    Invariant: a dirty fragment's queries are all stale.
    """

    def __init__(self, fragments: int, queries: int, k: int) -> None:
        self.scores = np.zeros((fragments, k), dtype=np.float64)
        self.rows = np.zeros((fragments, k), dtype=np.int64)
        self.lens = np.zeros(fragments, dtype=np.int64)
        self.dirty = np.ones(fragments, dtype=bool)
        self.answer_scores = np.zeros((queries, k), dtype=np.float64)
        self.answer_rows = np.zeros((queries, k), dtype=np.int64)
        self.answer_lens = np.zeros(queries, dtype=np.int64)
        self.stale = np.ones(queries, dtype=bool)


class ColumnarFragmentExecutor:
    """Answers shared-aggregation rounds from fragment row slices.

    Args:
        instance: The engine's aggregation instance (defines queries,
            trivial queries, and -- via
            :func:`repro.plans.fragments.identify_fragments` -- the
            fragment partition).
        store: The columnar population; fragment member ids are
            translated to row indices once at construction, so the
            store's rows must not be renumbered afterwards
            (:meth:`answer` checks).
        k: Result capacity (the engine passes ``slots + 1`` for GSP).
        collector: Counts ``plan.merges``, ``plan.leaf_scans`` per row
            read and ``plan.candidates_gathered``, so shared-mode work
            tables keep their meaning under the columnar layout.  In
            cross-round mode additionally ``plan.nodes_reused`` /
            ``plan.nodes_invalidated`` / ``plan.revalidations``.
        cross_round: Keep the fragment and answer tables alive
            between rounds and rescan only fragments touching a dirty
            row (see the module docstring).  ``False`` (the default)
            answers each round from scratch, still scanning a fragment
            once however many requested queries it covers.

    Attributes:
        rounds: Cross-round rounds absorbed.
    """

    def __init__(
        self,
        instance: SharedAggregationInstance,
        store: ColumnarStore,
        k: int,
        collector: Collector = NULL,
        cross_round: bool = False,
    ) -> None:
        if k <= 0:
            raise InvalidPlanError(f"k must be positive, got {k}")
        require_numpy()
        self.k = k
        self.store = store
        self.collector = collector
        self.cross_round = cross_round
        # The row numbering every index below is expressed in.
        self._ids = store.ids
        fragments = identify_fragments(instance)
        trivial = instance.trivial_queries
        queries = instance.queries + trivial
        self._query_index: Dict[str, int] = {
            query.name: index for index, query in enumerate(queries)
        }
        # A trivial query is one more fragment: its variable, covering
        # only itself.  Regular fragments keep indices [0, regular).
        self._regular = len(fragments)
        members = [f.variables for f in fragments]
        members += [q.variables for q in trivial]
        covers = [f.query_names for f in fragments]
        covers += [(q.name,) for q in trivial]
        count = len(members)
        frag_index = np.arange(count)
        member_frag = np.repeat(
            frag_index, np.fromiter(map(len, members), np.int64, count)
        )
        member_row = store.rows_of(
            np.fromiter(
                chain.from_iterable(members), np.int64, len(member_frag)
            )
        )
        cover_frag = np.repeat(
            frag_index, np.fromiter(map(len, covers), np.int64, count)
        )
        cover_query = np.fromiter(
            map(self._query_index.__getitem__, chain.from_iterable(covers)),
            np.int64,
            len(cover_frag),
        )
        self._rows_of_frag = _csr(member_frag, member_row, count)
        self._frags_of_row = _csr(member_row, member_frag, store.size)
        self._frags_of_query = _csr(cover_query, cover_frag, len(queries))
        self._queries_of_frag = _csr(cover_frag, cover_query, count)
        self._cover_len = np.diff(self._frags_of_query[0])
        self._shape = (count, len(queries), k)
        self._columns = np.arange(k)
        self.rounds = 0
        if cross_round:
            size = store.size
            self._tables = _Tables(*self._shape)
            # Last absorbed score per row plus a seen mask: the array
            # analogue of the object executor's ``_last_scores`` dict
            # (absent key == never seen == always dirty).
            self._last_scores = np.zeros(size, dtype=np.float64)
            self._seen = np.zeros(size, dtype=bool)
            # Epochs bump exactly when a value actually changes -- the
            # same monotone versioning tests probe via ``leaf_epoch``.
            self._row_epoch = np.zeros(size, dtype=np.int64)
            self._frag_epoch = np.zeros(count, dtype=np.int64)
            self._dirty_rows_last = np.zeros(0, dtype=np.int64)

    # ------------------------------------------------------------------
    # cross-round state probes
    # ------------------------------------------------------------------
    def fragment_epoch(self, index: int) -> int:
        """Monotone rescore count of one fragment (cross-round mode)."""
        return int(self._frag_epoch[index])

    def row_epoch(self, row: int) -> int:
        """Monotone change count of one row's absorbed score."""
        return int(self._row_epoch[row])

    def dirty_rows_last_round(self) -> "np.ndarray":
        """Row indices the last round treated as dirty (ascending).

        Exposed for the tests: the hypothesis property asserts these
        are exactly the round's first sights and the rows whose score
        moved.
        """
        return self._dirty_rows_last

    # ------------------------------------------------------------------
    # round execution
    # ------------------------------------------------------------------
    def query_index(self, name: str) -> int:
        """The index :meth:`answer` takes for a query name (raises
        :class:`InvalidPlanError` for a name the instance lacks)."""
        index = self._query_index.get(name)
        if index is None:
            raise InvalidPlanError(f"unknown query {name!r}")
        return index

    def answer(self, score_by_row, queries, rows=None) -> ColumnarExecResult:
        """Answer the round's requested queries, as arrays.

        Args:
            score_by_row: Full-length float64 array of effective scores;
                only rows belonging to the requested queries are read
                (the engine fills exactly the occurring rows).
            queries: int64 :meth:`query_index` of each requested query;
                a repeat (A-equivalent phrases) is answered once.
            rows: The round's scored row indices (ascending) -- the
                union of the requested queries' member rows, which the
                cross-round mode diffs against its snapshot.  The
                engine passes its occurring-row array; ``None`` derives
                it from ``queries`` (one-off callers and tests).

        Returns:
            The answers of ``queries`` laid end to end in request order
            (``lens``, ``scores``, ``rows``) and the round's work.

        Raises:
            InvalidPlanError: If the store's rows were renumbered after
                construction (advertisers added or removed).
        """
        size = len(self._ids)
        if self.store.ids is not self._ids or len(score_by_row) != size:
            raise InvalidPlanError(
                f"store rows were renumbered since the executor indexed "
                f"{size} of them (store: {self.store.size}, "
                f"score_by_row: {len(score_by_row)}); build a new executor"
            )
        if not self.cross_round:
            return self._aggregate(score_by_row, queries, False)
        self.rounds += 1
        if rows is None:
            frags, _ = _gather(self._frags_of_query, queries)
            rows, _ = _gather(self._rows_of_frag, np.unique(frags))
            rows = np.unique(rows)
        else:
            rows = np.asarray(rows, dtype=np.int64)
        invalidated = self._absorb_scores(score_by_row, rows)
        result = self._aggregate(score_by_row, queries, True)
        result.nodes_invalidated = invalidated
        self._count(metric_names.PLAN_NODES_INVALIDATED, invalidated)
        return result

    def run_round(
        self,
        score_by_row,
        names: Sequence[str],
        rows=None,
    ) -> ColumnarExecResult:
        """:meth:`answer` by (canonical) query name, with
        :attr:`ColumnarExecResult.answers` built from its arrays.

        Raises:
            InvalidPlanError: As :meth:`query_index` and :meth:`answer`.
        """
        queries = np.fromiter(
            map(self.query_index, names), np.int64, len(names)
        )
        result = self.answer(score_by_row, queries, rows)
        ids = self._ids[result.rows].tolist()
        entries = list(map(ScoredAdvertiser, result.scores.tolist(), ids))
        lens = result.lens.tolist()
        result.answers = {
            name: TopKList.from_ranked(self.k, tuple(entries[end - n:end]))
            for name, n, end in zip(names, lens, accumulate(lens))
        }
        return result

    def _absorb_scores(self, score_by_row, rows) -> int:
        """Diff the scored rows against the snapshot; mark dirty fragments.

        A row is dirty on first sight or when its score moved.  The
        "invalidation cone" of a dirty row is its fragments and the
        queries they cover: two mask writes behind two reverse-CSR
        gathers.

        Returns:
            The resident cached fragments newly invalidated.
        """
        seen = self._seen[rows]
        changed = score_by_row[rows] != self._last_scores[rows]
        dirty_rows = rows[~seen | changed]
        self._dirty_rows_last = dirty_rows
        if not len(dirty_rows):
            return 0
        self._last_scores[dirty_rows] = score_by_row[dirty_rows]
        self._seen[dirty_rows] = True
        self._row_epoch[dirty_rows] += 1
        tables = self._tables
        frags, _ = _gather(self._frags_of_row, dirty_rows)
        # A clean fragment has been scanned, so it is resident.
        newly = np.unique(frags[~tables.dirty[frags]])
        tables.dirty[newly] = True
        stale, _ = _gather(self._queries_of_frag, newly)
        tables.stale[stale] = True
        return int(np.count_nonzero(newly < self._regular))

    def _aggregate(
        self, score_by_row, queries, cached: bool
    ) -> ColumnarExecResult:
        """Refresh the needed dirty fragments, answer the stale queries.

        ``cached`` runs over the state kept between rounds -- only then
        do untouched fragments count as reuse and refreshes bump epochs
        -- instead of a scratch one in which everything is dirty.
        """
        k = self.k
        tables = self._tables if cached else _Tables(*self._shape)
        wanted = np.unique(queries) if len(queries) > 1 else queries
        touches = int(self._cover_len[wanted].sum())
        stale = wanted[tables.stale[wanted]]
        refreshed = scanned = gathered = merges = 0
        if len(stale):
            frags, seg = _gather(self._frags_of_query, stale)
            # Every dirty fragment of a requested query belongs to a
            # stale one (the _Tables invariant).
            touched = np.zeros(len(tables.dirty), dtype=bool)
            touched[frags] = True
            due = np.flatnonzero(touched & tables.dirty)
            refreshed = len(due)
            if refreshed:
                rows, row_seg = _gather(self._rows_of_frag, due)
                scores = score_by_row[rows]
                picked, at, rank, tables.lens[due] = segmented_top_k_picks(
                    k, scores, rows, row_seg, refreshed
                )
                tables.scores[due[at], rank] = scores[picked]
                tables.rows[due[at], rank] = rows[picked]
                tables.dirty[due] = False
                if cached:
                    self._frag_epoch[due] += 1
                scanned = gathered = len(rows)
            # The live cells of the covers' table rows, as flat
            # positions into the (F, k) tables.
            cells, cell_frag = _ranges(frags * k, tables.lens[frags])
            scores = tables.scores.ravel()[cells]
            rows = tables.rows.ravel()[cells]
            picked, at, rank, tables.answer_lens[stale] = (
                segmented_top_k_picks(
                    k, scores, rows, seg[cell_frag], len(stale)
                )
            )
            tables.answer_scores[stale[at], rank] = scores[picked]
            tables.answer_rows[stale[at], rank] = rows[picked]
            tables.stale[stale] = False
            merges = int(self._cover_len[stale].sum() - len(stale))
            gathered += len(cells)
        # Every requested answer, stale a moment ago or not, is the live
        # prefix of its row of the answer table: one gather.
        lens = tables.answer_lens[queries]
        live = self._columns < lens[:, None]
        result = ColumnarExecResult(
            lens,
            tables.answer_scores[queries][live],
            tables.answer_rows[queries][live],
            merges_performed=merges,
            advertisers_scanned=scanned,
            candidates_gathered=gathered,
        )
        self._count(metric_names.PLAN_LEAF_SCANS, scanned)
        self._count(metric_names.PLAN_MERGES, merges)
        self._count(metric_names.PLAN_CANDIDATES_GATHERED, gathered)
        if cached:
            result.nodes_reused = touches - refreshed
            result.nodes_revalidated = touches - len(wanted) - merges
            self._count(metric_names.PLAN_NODES_REUSED, result.nodes_reused)
            self._count(
                metric_names.PLAN_REVALIDATIONS, result.nodes_revalidated
            )
        return result

    def _count(self, name: str, amount: int) -> None:
        if amount and self.collector.enabled:
            self.collector.incr(name, amount)
