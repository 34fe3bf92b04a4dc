"""Unit tests for cross-round :class:`ColumnarFragmentExecutor` caching.

The cross-round mode keeps fragment top-k lists alive between rounds
behind a row-granular dirty mask -- the array-space transcription of
:class:`repro.plans.executor.CrossRoundPlanExecutor`'s dirty-cone walk.
These tests pin the cache's unit semantics (reuse, invalidation,
revalidation, verify, feed hand-off, bypass); the engine differential
and the hypothesis dirty-mask property live in
``tests/engine/test_layout_differential.py``.
"""

from __future__ import annotations

import random

import pytest

np = pytest.importorskip("numpy")

from repro.core.advertiser import Advertiser
from repro.core.columnar import ColumnarStore
from repro.engine.changefeed import BidChanged, ChangeFeed
from repro.errors import InvalidPlanError
from repro.instrument import MetricsCollector, names
from repro.plans.columnar_exec import ColumnarFragmentExecutor
from repro.plans.instance import AggregateQuery, SharedAggregationInstance

# Two overlapping queries plus a trivial one: fragments {1,2}, {3,4},
# {5,6} -- q1 and q2 share the {3,4} fragment, t7 is a single leaf.
IDS = [1, 2, 3, 4, 5, 6, 7]


def _instance() -> SharedAggregationInstance:
    return SharedAggregationInstance(
        [
            AggregateQuery("q1", {1, 2, 3, 4}),
            AggregateQuery("q2", {3, 4, 5, 6}),
            AggregateQuery("t7", {7}),
        ]
    )


def _store() -> ColumnarStore:
    return ColumnarStore(
        [Advertiser(i, 1.0, phrases=frozenset({"p"})) for i in IDS]
    )


def _executor(store, collector=None, **kw) -> ColumnarFragmentExecutor:
    kwargs = dict(cross_round=True, verify=True)
    kwargs.update(kw)
    if collector is None:
        return ColumnarFragmentExecutor(_instance(), store, 3, **kwargs)
    return ColumnarFragmentExecutor(_instance(), store, 3, collector, **kwargs)


def _scores(store, by_id):
    scores = np.zeros(store.size, dtype=np.float64)
    for advertiser_id, score in by_id.items():
        scores[store.row_of(advertiser_id)] = score
    return scores


ALL = ["q1", "q2", "t7"]


def _entries(result):
    return {
        name: [(e.score, e.advertiser_id) for e in ranking.entries]
        for name, ranking in result.answers.items()
    }


class TestCrossRoundIdentity:
    def test_cached_answers_equal_fresh_every_round(self):
        rng = random.Random(3)
        store = _store()
        cached = _executor(store)
        fresh = ColumnarFragmentExecutor(_instance(), store, 3)
        by_id = {i: float(rng.randint(1, 9)) for i in IDS}
        for _ in range(12):
            dirty = {i for i in IDS if rng.random() < 0.3}
            for i in dirty:
                by_id[i] = float(rng.randint(1, 9))
            scores = _scores(store, by_id)
            result_cached = cached.run_round(scores, ALL, dirty=dirty)
            result_fresh = fresh.run_round(scores, ALL)
            assert _entries(result_cached) == _entries(result_fresh)

    def test_clean_round_is_all_reuse(self):
        collector = MetricsCollector()
        store = _store()
        executor = _executor(store, collector)
        scores = _scores(store, {i: float(10 * i) for i in IDS})
        first = executor.run_round(scores, ALL, dirty=set(IDS))
        assert first.advertisers_scanned == len(IDS)
        # q2's second touch of the shared {3,4} fragment (scanned while
        # answering q1) is already a reuse -- the within-round sharing.
        assert first.nodes_reused == 1
        second = executor.run_round(scores, ALL, dirty=set())
        # Nothing moved: every cover touch (q1's 2 fragments, q2's 2,
        # the trivial leaf) comes straight from the cache, and both
        # folds revalidate by operand identity.
        assert second.advertisers_scanned == 0
        assert second.merges_performed == 0
        assert second.nodes_reused == 5
        assert second.nodes_revalidated == 2
        assert _entries(first) == _entries(second)
        assert collector.counter(names.PLAN_NODES_REUSED) == 6
        assert collector.counter(names.PLAN_REVALIDATIONS) == 2

    def test_dirty_row_rescans_only_its_fragment(self):
        store = _store()
        executor = _executor(store)
        by_id = {i: float(10 * i) for i in IDS}
        executor.run_round(_scores(store, by_id), ALL, dirty=set(IDS))
        by_id[5] = 95.0  # fragment {5,6}: only q2's private fragment
        result = executor.run_round(_scores(store, by_id), ALL, dirty={5})
        assert result.nodes_invalidated == 1
        assert result.advertisers_scanned == 2  # rows 5 and 6 only
        # q1's {1,2} + the shared {3,4} twice (once per cover) + leaf 7.
        assert result.nodes_reused == 4
        assert result.nodes_revalidated == 1  # q1's fold; q2 re-merges
        assert result.answers["q2"].entries[0].advertiser_id == 5

    def test_epochs_bump_only_on_actual_change(self):
        store = _store()
        executor = _executor(store)
        scores = _scores(store, {i: 1.0 for i in IDS})
        executor.run_round(scores, ALL, dirty=set(IDS))
        row = store.row_of(3)
        assert executor.row_epoch(row) == 1
        # Declared but unchanged: no bump, no fragment invalidation.
        result = executor.run_round(scores, ALL, dirty={3})
        assert executor.row_epoch(row) == 1
        assert result.nodes_invalidated == 0
        assert len(executor.dirty_rows_last_round()) == 0


class TestVerify:
    def test_undeclared_change_raises(self):
        store = _store()
        executor = _executor(store)
        by_id = {i: 1.0 for i in IDS}
        executor.run_round(_scores(store, by_id), ALL, dirty=set(IDS))
        by_id[2] = 7.0
        with pytest.raises(InvalidPlanError, match="unsound dirty set"):
            executor.run_round(_scores(store, by_id), ALL, dirty=set())

    def test_unverified_keeps_snapshot_until_declared(self):
        store = _store()
        executor = _executor(store, verify=False)
        by_id = {i: float(i) for i in IDS}
        executor.run_round(_scores(store, by_id), ALL, dirty=set(IDS))
        by_id[1] = 99.0  # undeclared: trusted unchanged
        result = executor.run_round(_scores(store, by_id), ALL, dirty=set())
        assert result.answers["q1"].entries[0].advertiser_id == 4
        # The covering declaration repairs the cache (self-healing).
        result = executor.run_round(_scores(store, by_id), ALL, dirty={1})
        assert result.answers["q1"].entries[0].advertiser_id == 1

    def test_dirty_declaration_requires_cross_round(self):
        store = _store()
        executor = ColumnarFragmentExecutor(_instance(), store, 3)
        with pytest.raises(InvalidPlanError, match="cross_round"):
            executor.run_round(_scores(store, {}), ALL, dirty={1})


class TestChangeFeed:
    def test_connect_requires_cross_round(self):
        executor = ColumnarFragmentExecutor(_instance(), _store(), 3)
        with pytest.raises(InvalidPlanError, match="cross_round"):
            executor.connect(ChangeFeed())

    def test_connected_feed_rejects_dirty_argument(self):
        store = _store()
        executor = _executor(store)
        executor.connect(ChangeFeed())
        with pytest.raises(InvalidPlanError, match="change feed"):
            executor.run_round(_scores(store, {}), ALL, dirty={1})

    def test_events_absorbed_only_when_scored(self):
        store = _store()
        executor = _executor(store)
        feed = ChangeFeed()
        executor.connect(feed)
        by_id = {i: float(i) for i in IDS}
        executor.run_round(_scores(store, by_id), ALL)
        feed.publish(BidChanged(advertiser_id=2))
        feed.publish(BidChanged(advertiser_id=6))
        by_id[2] = 50.0
        by_id[6] = 60.0
        # Round scoring only q1's rows: advertiser 6 is not scored, so
        # its event must survive in the pending set.
        result = executor.run_round(
            _scores(store, by_id),
            ["q1"],
            rows=store.rows_of([1, 2, 3, 4]),
        )
        assert executor.pending_dirty == frozenset({6})
        assert result.answers["q1"].entries[0].advertiser_id == 2
        result = executor.run_round(_scores(store, by_id), ALL)
        assert executor.pending_dirty == frozenset()
        assert result.answers["q2"].entries[0].advertiser_id == 6


class _ForceBypass:
    def __init__(self):
        self.bypasses = 0

    def should_bypass(self):
        return True

    def record_bypass(self):
        self.bypasses += 1

    def observe_round(self, dirty, population, working_set):
        pass


class TestAutotunerBypass:
    def test_bypass_runs_fresh_but_absorbs_scores(self):
        store = _store()
        tuner = _ForceBypass()
        executor = _executor(store, autotuner=tuner)
        by_id = {i: float(i) for i in IDS}
        result = executor.run_round(
            _scores(store, by_id), ALL, dirty=set(IDS)
        )
        assert result.bypassed
        assert tuner.bypasses == 1
        assert executor.bypass_rounds == 1
        assert result.answers["q1"].entries[0].advertiser_id == 4
        # Scores were absorbed during the bypass: an undeclared change
        # afterwards is still caught by the verify cross-check.
        by_id[3] = 44.0
        with pytest.raises(InvalidPlanError, match="unsound dirty set"):
            executor.run_round(_scores(store, by_id), ALL, dirty=set())


class TestRenumberedStore:
    """The executor's row indices are frozen at construction; store
    churn renumbers rows, and the feed only marks the ids dirty."""

    def test_added_advertiser_raises_instead_of_misreading_rows(self):
        store = _store()
        executor = _executor(store)
        by_id = {i: float(i) for i in IDS}
        executor.run_round(_scores(store, by_id), ALL, dirty=set(IDS))
        # Id 0 sorts first: every indexed row now holds its neighbour.
        store.add_advertiser(Advertiser(0, 1.0, phrases=frozenset({"p"})))
        by_id[0] = 100.0
        with pytest.raises(InvalidPlanError, match="renumbered"):
            executor.run_round(_scores(store, by_id), ALL, dirty={0})

    def test_removed_advertiser_raises_through_the_feed(self):
        store = _store()
        executor = _executor(store)
        feed = ChangeFeed()
        executor.connect(feed)
        by_id = {i: float(i) for i in IDS}
        executor.run_round(_scores(store, by_id), ALL)
        store.remove_advertiser(7)
        del by_id[7]
        with pytest.raises(InvalidPlanError, match="renumbered"):
            executor.run_round(_scores(store, by_id), ["q1", "q2"])

    def test_same_size_renumbering_and_short_scores_raise(self):
        store = _store()
        fresh = ColumnarFragmentExecutor(_instance(), store, 3)
        with pytest.raises(InvalidPlanError, match="renumbered"):
            fresh.run_round(np.zeros(store.size - 1), ALL)
        # Swap one advertiser for another: the row count is unchanged
        # but the ids column is a different array.
        store.remove_advertiser(1)
        store.add_advertiser(Advertiser(9, 1.0, phrases=frozenset({"p"})))
        with pytest.raises(InvalidPlanError, match="renumbered"):
            fresh.run_round(np.zeros(store.size), ALL)
