"""``segmented_top_k`` equals the per-segment kernel and the merge chain.

The columnar shared executor answers a whole round with one lexsort
over a ragged batch instead of a chain of binary merges per phrase.
That is only a refactor if the batch kernel returns, for every segment,
exactly what :func:`repro.core.columnar.columnar_top_k` returns on that
segment alone and what a left fold of
:func:`repro.core.topk.top_k_merge` over the segment's singletons
returns -- entry for entry, including ties, signed zeros, empty
segments, segments shorter than ``k`` and equal scores in different
segments.
"""

from __future__ import annotations

from functools import reduce

import pytest

np = pytest.importorskip("numpy")

from hypothesis import given, settings, strategies as st

from repro.core.columnar import columnar_top_k, segmented_top_k
from repro.core.topk import TopKList, top_k_merge
from repro.errors import InvalidAuctionError

# A small pool so ties (within and across segments) are the common case;
# 0.0 and -0.0 compare equal and must fall to the id tie-break.
SCORES = st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.5, -1.0, 7.25])


@st.composite
def ragged_batches(draw):
    seg_count = draw(st.integers(1, 6))
    k = draw(st.integers(1, 4))
    segments = [
        draw(st.lists(SCORES, min_size=0, max_size=7))
        for _ in range(seg_count)
    ]
    total = sum(map(len, segments))
    # Ids are distinct within a segment (here: globally) and arrive in
    # no particular order.
    ids = draw(st.permutations(range(100, 100 + total)))
    seg = [index for index, s in enumerate(segments) for _ in s]
    scores = [score for s in segments for score in s]
    # The kernel must not depend on the batch being grouped by segment.
    order = draw(st.permutations(range(total)))
    return (
        k,
        np.array([scores[i] for i in order], dtype=np.float64),
        np.array([ids[i] for i in order], dtype=np.int64),
        np.array([seg[i] for i in order], dtype=np.int64),
        seg_count,
    )


def _rows(k, scores, ids, seg, seg_count):
    top_scores, top_ids, counts = segmented_top_k(
        k, scores, ids, seg, seg_count
    )
    assert top_scores.shape == top_ids.shape == (seg_count, k)
    return [
        list(zip(top_scores[s, :n].tolist(), top_ids[s, :n].tolist()))
        for s, n in enumerate(counts.tolist())
    ]


def _signed(entries):
    """(score, sign bit, id): ``0.0 == -0.0`` must not hide a swap."""
    return [
        (score, bool(np.signbit(score)), advertiser_id)
        for score, advertiser_id in entries
    ]


@settings(max_examples=300, deadline=None)
@given(ragged_batches())
def test_rows_equal_columnar_top_k_and_the_merge_fold(batch):
    k, scores, ids, seg, seg_count = batch
    rows = _rows(k, scores, ids, seg, seg_count)
    for s in range(seg_count):
        member = seg == s
        scan = columnar_top_k(k, scores[member], ids[member])
        fold = reduce(
            top_k_merge,
            (
                TopKList.singleton(k, float(score), int(advertiser_id))
                for score, advertiser_id in zip(scores[member], ids[member])
            ),
            TopKList.empty(k),
        )
        expected = [(e.score, e.advertiser_id) for e in scan.entries]
        assert _signed(rows[s]) == _signed(expected)
        assert _signed(rows[s]) == _signed(
            [(e.score, e.advertiser_id) for e in fold.entries]
        )


def test_ties_break_by_lower_id_and_zero_signs_tie():
    scores = np.array([1.0, 1.0, -0.0, 0.0, 1.0])
    ids = np.array([9, 3, 5, 4, 7], dtype=np.int64)
    seg = np.zeros(5, dtype=np.int64)
    assert _rows(4, scores, ids, seg, 1) == [
        [(1.0, 3), (1.0, 7), (1.0, 9), (0.0, 4)]
    ]
    # -0.0 (id 5) ranks after 0.0 (id 4) by id, and keeps its sign.
    top_scores, top_ids, _ = segmented_top_k(5, scores, ids, seg, 1)
    assert top_ids[0].tolist() == [3, 7, 9, 4, 5]
    assert np.signbit(top_scores[0, 4]) and not np.signbit(top_scores[0, 3])


def test_empty_and_short_segments_are_padded():
    scores = np.array([2.0, 3.0])
    ids = np.array([1, 2], dtype=np.int64)
    seg = np.array([2, 2], dtype=np.int64)
    top_scores, top_ids, counts = segmented_top_k(3, scores, ids, seg, 4)
    assert counts.tolist() == [0, 0, 2, 0]
    assert top_ids.tolist() == [
        [-1, -1, -1], [-1, -1, -1], [2, 1, -1], [-1, -1, -1],
    ]
    assert top_scores[2].tolist() == [3.0, 2.0, 0.0]


def test_empty_batch():
    empty = np.zeros(0)
    top_scores, top_ids, counts = segmented_top_k(
        2, empty, empty.astype(np.int64), empty.astype(np.int64), 3
    )
    assert counts.tolist() == [0, 0, 0]
    assert top_scores.shape == top_ids.shape == (3, 2)


def test_rejects_non_positive_k():
    empty = np.zeros(0)
    with pytest.raises(InvalidAuctionError):
        segmented_top_k(
            0, empty, empty.astype(np.int64), empty.astype(np.int64), 1
        )
