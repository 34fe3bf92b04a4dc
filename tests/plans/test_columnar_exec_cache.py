"""Unit tests for cross-round :class:`ColumnarFragmentExecutor` caching.

The cross-round mode keeps fragment top-k lists alive between rounds
behind a row-granular dirty mask drawn from the executor's own score
diff.  These tests pin the cache's unit semantics (reuse, invalidation,
revalidation, the diff); the engine differential and the hypothesis
dirty-mask property live in ``tests/engine/test_layout_differential.py``.
A hypothesis machine holds the executor's two faces -- ``answer``'s
arrays and ``run_round``'s ``TopKList``s, interleaved -- to one answer
table and to a fresh top-k.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

from repro.core.advertiser import Advertiser
from repro.core.columnar import ColumnarStore, columnar_top_k
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
    if collector is None:
        return ColumnarFragmentExecutor(
            _instance(), store, 3, cross_round=True, **kw
        )
    return ColumnarFragmentExecutor(
        _instance(), store, 3, collector, cross_round=True, **kw
    )


def _scores(store, by_id):
    scores = np.zeros(store.size, dtype=np.float64)
    for advertiser_id, score in by_id.items():
        scores[store.row_of(advertiser_id)] = score
    return scores


def _dirty_ids(store, executor):
    return {int(store.ids[row]) for row in executor.dirty_rows_last_round()}


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
            for i in IDS:
                if rng.random() < 0.3:
                    by_id[i] = float(rng.randint(1, 9))
            scores = _scores(store, by_id)
            result_cached = cached.run_round(scores, ALL)
            result_fresh = fresh.run_round(scores, ALL)
            assert _entries(result_cached) == _entries(result_fresh)

    def test_clean_round_is_all_reuse(self):
        collector = MetricsCollector()
        store = _store()
        executor = _executor(store, collector)
        scores = _scores(store, {i: float(10 * i) for i in IDS})
        first = executor.run_round(scores, ALL)
        assert first.advertisers_scanned == len(IDS)
        # q2's second touch of the shared {3,4} fragment (scanned while
        # answering q1) is already a reuse -- the within-round sharing.
        assert first.nodes_reused == 1
        second = executor.run_round(scores, ALL)
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
        executor.run_round(_scores(store, by_id), ALL)
        by_id[5] = 95.0  # fragment {5,6}: only q2's private fragment
        result = executor.run_round(_scores(store, by_id), ALL)
        assert _dirty_ids(store, executor) == {5}
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
        executor.run_round(scores, ALL)
        row = store.row_of(3)
        assert executor.row_epoch(row) == 1
        # Re-scored with the same values (a fresh array): no bump, no
        # fragment invalidation.
        result = executor.run_round(scores.copy(), ALL)
        assert executor.row_epoch(row) == 1
        assert result.nodes_invalidated == 0
        assert len(executor.dirty_rows_last_round()) == 0


class TestScoreDiff:
    """The diff is the executor's only invalidation route."""

    def test_first_sight_row_is_dirty_even_at_the_snapshot_value(self):
        store = _store()
        executor = _executor(store)
        # Every row scores 0.0 -- the value the never-written snapshot
        # holds -- and is still dirty: it has never been seen.
        zeros = _scores(store, {})
        result = executor.run_round(zeros, ["q1"])
        assert _dirty_ids(store, executor) == {1, 2, 3, 4}
        assert result.advertisers_scanned == 4
        # q2 brings rows 5 and 6 into sight; 3 and 4 are not re-dirtied.
        result = executor.run_round(zeros, ["q2"])
        assert _dirty_ids(store, executor) == {5, 6}
        assert result.advertisers_scanned == 2
        assert executor.row_epoch(store.row_of(5)) == 1
        assert executor.row_epoch(store.row_of(3)) == 1

    def test_unscored_move_is_caught_when_the_row_next_occurs(self):
        store = _store()
        executor = _executor(store)
        by_id = {i: float(i) for i in IDS}
        executor.run_round(_scores(store, by_id), ALL)
        by_id[2] = 50.0
        by_id[6] = 60.0
        # A round scoring only q1's rows: 6 is not read, so not absorbed.
        result = executor.run_round(
            _scores(store, by_id),
            ["q1"],
            rows=store.rows_of([1, 2, 3, 4]),
        )
        assert _dirty_ids(store, executor) == {2}
        assert result.answers["q1"].entries[0].advertiser_id == 2
        result = executor.run_round(_scores(store, by_id), ALL)
        assert _dirty_ids(store, executor) == {6}
        assert result.answers["q2"].entries[0].advertiser_id == 6


class TestRenumberedStore:
    """The executor's row indices are frozen at construction; store
    churn renumbers rows."""

    def test_added_advertiser_raises_instead_of_misreading_rows(self):
        store = _store()
        executor = _executor(store)
        by_id = {i: float(i) for i in IDS}
        executor.run_round(_scores(store, by_id), ALL)
        # Id 0 sorts first: every indexed row now holds its neighbour.
        store.add_advertiser(Advertiser(0, 1.0, phrases=frozenset({"p"})))
        by_id[0] = 100.0
        with pytest.raises(InvalidPlanError, match="renumbered"):
            executor.run_round(_scores(store, by_id), ALL)

    def test_removed_advertiser_raises(self):
        store = _store()
        executor = _executor(store)
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


class TestWhatAMoveRestales:
    def test_a_move_below_the_top_k_still_rescans_its_fragment(self):
        # k = 1: row 5 tops {5,6}; lowering row 6 changes no answer, but
        # the diff cannot know that -- {5,6} is rescanned, q2 re-merged.
        store = _store()
        executor = ColumnarFragmentExecutor(
            _instance(), store, 1, cross_round=True
        )
        by_id = {i: float(10 * i) for i in IDS}
        by_id[5] = 99.0
        first = executor.run_round(_scores(store, by_id), ALL)
        by_id[6] = 1.0
        result = executor.run_round(_scores(store, by_id), ALL)
        assert _dirty_ids(store, executor) == {6}
        assert result.advertisers_scanned == 2
        assert result.merges_performed == 1  # q2's two fragments
        assert _entries(result) == _entries(first)

    def test_a_move_in_a_shared_fragment_restales_both_queries(self):
        store = _store()
        executor = _executor(store)
        by_id = {i: float(10 * i) for i in IDS}
        executor.run_round(_scores(store, by_id), ALL)
        by_id[3] = 500.0
        result = executor.run_round(_scores(store, by_id), ALL)
        assert result.nodes_invalidated == 1  # {3,4}, shared
        assert result.advertisers_scanned == 2
        assert result.merges_performed == 2  # q1 and q2, one merge each
        assert result.nodes_revalidated == 0
        assert result.answers["q1"].entries[0].advertiser_id == 3
        assert result.answers["q2"].entries[0].advertiser_id == 3

    def test_a_clean_round_replays_the_same_answers(self):
        store = _store()
        executor = _executor(store)
        scores = _scores(store, {i: float(i) for i in IDS})
        first = executor.run_round(scores, ALL)
        second = executor.run_round(scores.copy(), ALL)
        assert second.answers == first.answers
        assert second.candidates_gathered == 0


def _random_instance(rng):
    """Overlapping queries over 30 advertisers, singletons included."""
    ids = rng.sample(range(200), 30)
    queries = [
        AggregateQuery(f"q{index}", set(rng.sample(ids, rng.randint(1, 12))))
        for index in range(7)
    ]
    store = ColumnarStore(
        [Advertiser(i, 1.0, phrases=frozenset({"p"})) for i in ids]
    )
    return SharedAggregationInstance(queries), store


class TestRandomInstances:
    """Cached rounds against a fresh executor and a brute-force top-k.

    Each round requests a random subset of the queries, and a random
    fraction of the scores moves -- none, a few, or all -- over a small
    pool of values, so equal scores (the id tie-break) are common.  The
    dirty rows are modelled exactly: a requested row never absorbed
    before, or one whose score differs from the last one absorbed.
    """

    @pytest.mark.parametrize("seed", range(20))
    def test_cached_rounds_match_a_fresh_executor(self, seed):
        rng = random.Random(seed)
        instance, store = _random_instance(rng)
        k = rng.randint(1, 4)
        cached = ColumnarFragmentExecutor(instance, store, k, cross_round=True)
        fresh = ColumnarFragmentExecutor(instance, store, k)
        members = {
            query.name: query.variables
            for query in instance.queries + instance.trivial_queries
        }
        names = sorted(members)
        by_id = {i: float(rng.randint(1, 5)) for i in store.ids.tolist()}
        absorbed: dict = {}
        moves: dict = {}
        for _ in range(15):
            fraction = rng.choice([0.0, 0.05, 0.3, 1.0])
            for i in by_id:
                if rng.random() < fraction:
                    by_id[i] = float(rng.randint(1, 5))
            requested = rng.sample(names, rng.randint(1, len(names)))
            scores = _scores(store, by_id)
            result = cached.run_round(scores, requested)
            reference = fresh.run_round(scores, requested)
            assert _entries(result) == _entries(reference)
            for name in requested:
                expected = sorted(
                    ((by_id[i], i) for i in members[name]),
                    key=lambda entry: (-entry[0], entry[1]),
                )[:k]
                assert _entries(result)[name] == expected
            assert result.advertisers_scanned <= reference.advertisers_scanned
            scored = {i for name in requested for i in members[name]}
            dirty = {
                i for i in scored if absorbed.get(i, None) != by_id[i]
            }
            assert _dirty_ids(store, cached) == dirty
            for i in dirty:
                absorbed[i] = by_id[i]
                moves[i] = moves.get(i, 0) + 1
        for i in store.ids.tolist():
            assert cached.row_epoch(store.row_of(i)) == moves.get(i, 0)


# ----------------------------------------------------------------------
# the two faces read one answer table
# ----------------------------------------------------------------------
FACE_IDS = (2, 3, 5, 8, 13, 21, 34)
FACE_K = 3
# A small pool, so ties are common; 0.0 and -0.0 compare equal and fall
# to the id tie-break.
FACE_SCORES = st.sampled_from((0.0, -0.0, 0.5, 1.0, 2.5))


class TwoFacesMachine(RuleBasedStateMachine):
    """Scores move across rounds while ``answer`` (arrays) and
    ``run_round`` (``TopKList``) take turns on one cross-round executor
    and on an uncached one.  Whichever face asks, and whatever the other
    face refreshed before it, every answer is ``columnar_top_k`` of the
    query's members under the current scores.
    """

    @initialize(
        members=st.lists(
            st.sets(st.sampled_from(FACE_IDS), min_size=1, max_size=6),
            min_size=1,
            max_size=5,
        ),
        level=FACE_SCORES,
    )
    def build(self, members, level):
        # Queries of one and two members: fewer than k entries.
        members = [*members, set(FACE_IDS[:2]), {FACE_IDS[2]}]
        instance = SharedAggregationInstance(
            AggregateQuery(f"q{index}", variables)
            for index, variables in enumerate(members)
        )
        self.store = ColumnarStore(
            [Advertiser(i, 1.0, phrases=frozenset({"p"})) for i in FACE_IDS]
        )
        # A-equivalent queries deduplicate; the survivors are askable.
        self.members = {
            query.name: sorted(query.variables)
            for query in instance.queries + instance.trivial_queries
        }
        self.names = sorted(self.members)
        self.cached = ColumnarFragmentExecutor(
            instance, self.store, FACE_K, cross_round=True
        )
        self.uncached = ColumnarFragmentExecutor(instance, self.store, FACE_K)
        # Every score equal to start with.
        self.scores = np.full(self.store.size, level)

    def _expected(self, name):
        rows = self.store.rows_of(self.members[name])
        return columnar_top_k(
            FACE_K, self.scores[rows], self.store.ids[rows]
        ).entries

    def _check(self, executor, name, scores, ids):
        expected = self._expected(name)
        assert [(e.score, e.advertiser_id) for e in expected] == list(
            zip(scores, ids)
        ), name
        if executor is self.uncached:
            # Nothing replayed: the stored sign of a zero is the score's.
            assert [e.score.hex() for e in expected] == [
                score.hex() for score in scores
            ]

    @rule(moved=st.dictionaries(st.sampled_from(FACE_IDS), FACE_SCORES))
    def move(self, moved):
        for advertiser_id, score in moved.items():
            self.scores[self.store.row_of(advertiser_id)] = score

    @rule(level=FACE_SCORES)
    def level(self, level):
        self.scores[:] = level

    @rule(
        data=st.data(),
        scored=st.booleans(),
    )
    def ask_arrays(self, data, scored):
        # Repeats allowed: A-equivalent phrases ask for one query twice.
        requested = data.draw(
            st.lists(st.sampled_from(self.names), max_size=6)
        )
        queries = np.array(
            [self.cached.query_index(name) for name in requested],
            dtype=np.int64,
        )
        rows = None
        if scored:
            # The engine's form: the union of the requested members.
            rows = self.store.rows_of(
                sorted({i for name in requested for i in self.members[name]})
            )
        for executor in (self.cached, self.uncached):
            result = executor.answer(self.scores, queries, rows)
            assert len(result.lens) == len(requested)
            assert result.answers == {}
            ids = self.store.ids[result.rows].tolist()
            end = 0
            for name, n in zip(requested, result.lens.tolist()):
                self._check(
                    executor,
                    name,
                    result.scores[end:end + n].tolist(),
                    ids[end:end + n],
                )
                end += n
            assert end == len(result.scores) == len(ids)

    @rule(data=st.data())
    def ask_lists(self, data):
        requested = data.draw(
            st.lists(st.sampled_from(self.names), unique=True, max_size=6)
        )
        for executor in (self.cached, self.uncached):
            result = executor.run_round(self.scores, requested)
            assert sorted(result.answers) == sorted(requested)
            for name in requested:
                entries = result.answers[name].entries
                self._check(
                    executor,
                    name,
                    [e.score for e in entries],
                    [e.advertiser_id for e in entries],
                )


TestTwoFacesOneTable = TwoFacesMachine.TestCase
TestTwoFacesOneTable.settings = settings(
    max_examples=60, stateful_step_count=25, deadline=None
)
