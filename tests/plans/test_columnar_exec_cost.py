"""Cost bounds of the columnar fragment executor (ROADMAP item 1).

A round must cost what moved: a round in which nothing requested is
stale calls the kernel zero times and hands back, from its answer
table, the answers it handed back last time; one dirty row rescans its
fragment and re-aggregates the phrases covering that fragment, nobody
else; and no round -- fresh or cached -- reaches the binary merge chain
the kernel replaced.  These tests count calls, never time.
"""

from __future__ import annotations

import pytest

np = pytest.importorskip("numpy")

import repro.core.topk as topk_module
import repro.plans.columnar_exec as columnar_exec
from repro.core.advertiser import Advertiser
from repro.core.columnar import ColumnarStore
from repro.instrument import MetricsCollector, names
from repro.plans.columnar_exec import ColumnarFragmentExecutor
from repro.plans.instance import AggregateQuery, SharedAggregationInstance
from tests.plans.test_columnar_exec_cache import _scores

# Fragments {1,2} -> q1; {3,4} -> q1,q2; {5,6} -> q2,q3; {8} -> q3; the
# trivial query t7 is a one-row fragment of its own.
IDS = [1, 2, 3, 4, 5, 6, 7, 8]
ALL = ["q1", "q2", "q3", "t7"]
K = 3


def _instance() -> SharedAggregationInstance:
    return SharedAggregationInstance(
        [
            AggregateQuery("q1", {1, 2, 3, 4}),
            AggregateQuery("q2", {3, 4, 5, 6}),
            AggregateQuery("q3", {5, 6, 8}),
            AggregateQuery("t7", {7}),
        ]
    )


def _store() -> ColumnarStore:
    return ColumnarStore(
        [Advertiser(i, 1.0, phrases=frozenset({"p"})) for i in IDS]
    )


@pytest.fixture
def kernel_calls(monkeypatch):
    """Candidate count of every ``segmented_top_k_picks`` call the
    executor makes, in call order."""
    calls = []
    original = columnar_exec.segmented_top_k_picks

    def counted(k, scores, ids, seg, seg_count):
        calls.append(len(scores))
        return original(k, scores, ids, seg, seg_count)

    monkeypatch.setattr(columnar_exec, "segmented_top_k_picks", counted)
    return calls


@pytest.fixture
def no_merge_chain(monkeypatch):
    def reached(*args, **kwargs):
        raise AssertionError("the executor reached top_k_merge")

    monkeypatch.setattr(columnar_exec, "top_k_merge", reached)
    monkeypatch.setattr(topk_module, "top_k_merge", reached)


class TestCleanRound:
    def test_no_kernel_call_and_identical_answers(self, kernel_calls):
        collector = MetricsCollector()
        store = _store()
        executor = ColumnarFragmentExecutor(
            _instance(), store, K, collector, cross_round=True
        )
        scores = _scores(store, {i: float(10 * i) for i in IDS})
        first = executor.run_round(scores, ALL)
        # One refresh over all 8 member rows, one answer pass over the
        # covers' table cells: 4 + 4 + 3 + 1.
        assert kernel_calls == [8, 12]
        assert first.candidates_gathered == 20
        del kernel_calls[:]
        gathered = collector.counter(names.PLAN_CANDIDATES_GATHERED)
        assert gathered == 20
        # Re-scored with unchanged values, the same array and a copy.
        for rescored in (scores, scores.copy()):
            again = executor.run_round(rescored, ALL)
            assert kernel_calls == []
            assert again.candidates_gathered == 0
            assert again.advertisers_scanned == 0
            assert again.merges_performed == 0
            assert again.answers == first.answers
        assert collector.counter(names.PLAN_CANDIDATES_GATHERED) == gathered

    def test_a_subset_request_replays_without_the_kernel(self, kernel_calls):
        store = _store()
        executor = ColumnarFragmentExecutor(
            _instance(), store, K, cross_round=True
        )
        scores = _scores(store, {i: float(i) for i in IDS})
        first = executor.run_round(scores, ALL)
        del kernel_calls[:]
        again = executor.run_round(scores, ["q2"])
        assert kernel_calls == []
        assert again.answers == {"q2": first.answers["q2"]}


class TestOneDirtyRow:
    """A score that moves -- no event, no declaration anywhere -- costs
    its fragments and the phrases covering them, nobody else."""

    def test_only_the_covering_phrases_are_reaggregated(self, kernel_calls):
        store = _store()
        executor = ColumnarFragmentExecutor(
            _instance(), store, K, cross_round=True
        )
        by_id = {i: float(10 * i) for i in IDS}
        first = executor.run_round(_scores(store, by_id), ALL)
        del kernel_calls[:]
        by_id[5] = 95.0  # fragment {5,6}, covered by q2 and q3
        result = executor.run_round(_scores(store, by_id), ALL)
        # Refresh: the fragment's 2 rows.  Answer: q2 = {3,4} + {5,6}
        # (2 + 2 cells), q3 = {5,6} + {8} (2 + 1 cells).
        assert kernel_calls == [2, 7]
        assert result.advertisers_scanned == 2
        assert result.candidates_gathered == 9
        assert result.merges_performed == 2
        assert result.nodes_invalidated == 1
        assert result.answers["q1"] == first.answers["q1"]
        assert result.answers["t7"] == first.answers["t7"]
        assert result.answers["q2"] != first.answers["q2"]
        assert result.answers["q3"] != first.answers["q3"]
        assert result.answers["q2"].advertiser_ids() == (5, 6, 4)
        assert result.answers["q3"].advertiser_ids() == (5, 8, 6)
        assert executor.fragment_epoch(2) == 2  # {5,6}: rescanned once more
        assert [executor.fragment_epoch(i) for i in (0, 1, 3, 4)] == [1] * 4

    def test_an_unrequested_phrase_stays_stale_until_asked(
        self, kernel_calls
    ):
        store = _store()
        executor = ColumnarFragmentExecutor(
            _instance(), store, K, cross_round=True
        )
        by_id = {i: float(10 * i) for i in IDS}
        executor.run_round(_scores(store, by_id), ALL)
        by_id[8] = 1.0  # fragment {8}: q3 only
        scores = _scores(store, by_id)
        rows = store.rows_of([3, 4, 5, 6, 8])
        del kernel_calls[:]
        result = executor.run_round(scores, ["q2"], rows=rows)
        # q2 does not cover {8}: the fragment stays dirty, nothing runs.
        assert kernel_calls == []
        assert result.nodes_invalidated == 1
        result = executor.run_round(scores, ["q3"], rows=rows)
        assert kernel_calls == [1, 3]
        assert result.answers["q3"].advertiser_ids() == (6, 5, 8)


class TestMergeChainIsGone:
    def test_fresh_and_cached_rounds(self, no_merge_chain):
        store = _store()
        by_id = {i: float(i % 3) for i in IDS}
        scores = _scores(store, by_id)
        fresh = ColumnarFragmentExecutor(_instance(), store, K)
        result = fresh.run_round(scores, ALL)
        expected = result.answers
        # Work of a from-scratch round.
        assert result.merges_performed == 3
        assert result.advertisers_scanned == 8
        assert result.nodes_reused == result.nodes_revalidated == 0
        cached = ColumnarFragmentExecutor(
            _instance(), store, K, cross_round=True
        )
        assert cached.run_round(scores, ALL).answers == expected
        assert cached.run_round(scores, ALL).answers == expected
