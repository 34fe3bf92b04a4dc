"""``segmented_top_k_picks`` equals the per-segment kernel and the merge chain.

The columnar shared executor answers a whole round with one lexsort
over a ragged batch instead of a chain of binary merges per phrase.
That is only a refactor if the batch kernel returns, for every segment,
exactly what :func:`repro.core.columnar.columnar_top_k` returns on that
segment alone and what a left fold of
:func:`repro.core.topk.top_k_merge` over the segment's singletons
returns -- entry for entry, including ties, signed zeros, empty
segments, segments shorter than ``k`` and equal scores in different
segments.  A large batch grouped by segment first drops the candidates
below their segment's k-th best; that route is held to the same oracle.
"""

from __future__ import annotations

from functools import reduce

import pytest

np = pytest.importorskip("numpy")

from hypothesis import given, settings, strategies as st

import repro.core.columnar as columnar
from repro.core.columnar import columnar_top_k, segmented_top_k_picks
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
    """Every segment's answer, as ``(score, id)`` lists, from the picks."""
    picked, picked_seg, rank, counts = segmented_top_k_picks(
        k, scores, ids, seg, seg_count
    )
    rows = [[] for _ in range(seg_count)]
    # Picks come in (segment, rank) order, each at its rank.
    for i, s, r in zip(picked.tolist(), picked_seg.tolist(), rank.tolist()):
        assert r == len(rows[s])
        rows[s].append((float(scores[i]), int(ids[i])))
    assert [len(row) for row in rows] == counts.tolist()
    return rows


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
    picked, _, _, _ = segmented_top_k_picks(5, scores, ids, seg, 1)
    assert ids[picked].tolist() == [3, 7, 9, 4, 5]
    assert np.signbit(scores[picked[4]]) and not np.signbit(scores[picked[3]])


def test_empty_and_short_segments():
    scores = np.array([2.0, 3.0])
    ids = np.array([1, 2], dtype=np.int64)
    seg = np.array([2, 2], dtype=np.int64)
    picked, picked_seg, rank, counts = segmented_top_k_picks(
        3, scores, ids, seg, 4
    )
    assert counts.tolist() == [0, 0, 2, 0]
    assert picked.tolist() == [1, 0]
    assert picked_seg.tolist() == [2, 2] and rank.tolist() == [0, 1]


def test_empty_batch():
    empty = np.zeros(0)
    picked, _, _, counts = segmented_top_k_picks(
        2, empty, empty.astype(np.int64), empty.astype(np.int64), 3
    )
    assert counts.tolist() == [0, 0, 0]
    assert len(picked) == 0


def test_rejects_non_positive_k():
    empty = np.zeros(0)
    with pytest.raises(InvalidAuctionError):
        segmented_top_k_picks(
            0, empty, empty.astype(np.int64), empty.astype(np.int64), 1
        )


@st.composite
def grouped_batches(draw):
    """Batches grouped by segment, the form the k-th-best filter takes."""
    k, scores, ids, seg, seg_count = draw(ragged_batches())
    order = np.argsort(seg, kind="stable")
    return k, scores[order], ids[order], seg[order], seg_count


@settings(max_examples=300, deadline=None)
@given(grouped_batches())
def test_the_kth_best_filter_keeps_every_answer(batch):
    k, scores, ids, seg, seg_count = batch
    sizes = np.bincount(seg, minlength=seg_count)
    floor = columnar.SEGMENT_FILTER_MIN_CANDIDATES
    columnar.SEGMENT_FILTER_MIN_CANDIDATES = 0
    try:
        kept = columnar._contenders(k, scores, seg, sizes)
        rows = _rows(k, scores, ids, seg, seg_count)
    finally:
        columnar.SEGMENT_FILTER_MIN_CANDIDATES = floor
    if kept is not None:
        # Every segment keeps at least its answer.
        assert (np.bincount(seg[kept], minlength=seg_count) >= np.minimum(
            sizes, k
        )).all()
    for s in range(seg_count):
        member = seg == s
        scan = columnar_top_k(k, scores[member], ids[member])
        assert _signed(rows[s]) == _signed(
            [(e.score, e.advertiser_id) for e in scan.entries]
        )


def test_a_large_grouped_batch_takes_the_filter():
    # 600 candidates over 3 segments, one shorter than k, scores from a
    # pool of five (ties at every k-th best) with both zeros.
    rng = np.random.default_rng(5)
    sizes = np.array([2, 298, 300])
    seg = np.repeat(np.arange(3), sizes)
    scores = rng.choice([0.0, -0.0, 0.5, 1.0, 2.5], size=len(seg))
    ids = rng.permutation(len(seg)).astype(np.int64)
    kept = columnar._contenders(4, scores, seg, sizes)
    assert kept is not None and len(kept) < len(seg) // 2
    rows = _rows(4, scores, ids, seg, 3)
    for s in range(3):
        member = seg == s
        scan = columnar_top_k(4, scores[member], ids[member])
        assert _signed(rows[s]) == _signed(
            [(e.score, e.advertiser_id) for e in scan.entries]
        )
    # Out of segment order the same batch is sorted whole.
    shuffled = rng.permutation(len(seg))
    unordered = columnar._contenders(
        4, scores[shuffled], seg[shuffled], sizes
    )
    assert unordered is None
