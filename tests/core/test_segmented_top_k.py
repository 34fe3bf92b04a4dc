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
below their segment's k-th best and orders the few left by row-wise
sorts; that route is held to the same oracle and, array for array, to
the lexsort of the whole batch.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import reduce

import numpy as np
import pytest

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


@contextmanager
def _filter_from(candidates):
    """Run with :data:`SEGMENT_FILTER_MIN_CANDIDATES` at ``candidates``."""
    floor = columnar.SEGMENT_FILTER_MIN_CANDIDATES
    columnar.SEGMENT_FILTER_MIN_CANDIDATES = candidates
    try:
        yield
    finally:
        columnar.SEGMENT_FILTER_MIN_CANDIDATES = floor


def _assert_routes_agree(k, scores, ids, seg, seg_count):
    """The filtered route's ``(picked, picked_seg, picked_rank,
    counts)`` equal the whole batch's lexsort, element by element (the
    same picked positions, so the same zero signs too)."""
    with _filter_from(0):
        filtered = segmented_top_k_picks(k, scores, ids, seg, seg_count)
    with _filter_from(len(seg) + 1):
        whole = segmented_top_k_picks(k, scores, ids, seg, seg_count)
    for name, one, other in zip(
        ("picked", "segment", "rank", "counts"), filtered, whole
    ):
        assert one.dtype == other.dtype, name
        assert one.tolist() == other.tolist(), name


@settings(max_examples=300, deadline=None)
@given(grouped_batches())
def test_the_kth_best_filter_keeps_every_answer(batch):
    k, scores, ids, seg, seg_count = batch
    sizes = np.bincount(seg, minlength=seg_count)
    with _filter_from(0):
        kept = columnar._contenders(k, scores, seg, sizes)
        rows = _rows(k, scores, ids, seg, seg_count)
    if kept is not None:
        # Every segment keeps at least its answer.
        assert (np.bincount(seg[kept], minlength=seg_count) >= np.minimum(
            sizes, k
        )).all()
    _assert_routes_agree(k, scores, ids, seg, seg_count)
    for s in range(seg_count):
        member = seg == s
        scan = columnar_top_k(k, scores[member], ids[member])
        assert _signed(rows[s]) == _signed(
            [(e.score, e.advertiser_id) for e in scan.entries]
        )


def test_a_large_grouped_batch_takes_the_filter():
    # 800 candidates over 4 segments, one shorter than k, ids in no
    # order within a segment (as in the fragment executor's second
    # call), scores from a pool of five (ties at every k-th best) with
    # both zeros; in the last segment the k-th best is a zero, tied
    # both ways by +-0.0.
    rng = np.random.default_rng(5)
    sizes = np.array([2, 298, 300, 200])
    seg = np.repeat(np.arange(4), sizes)
    scores = rng.choice([0.0, -0.0, 0.5, 1.0, 2.5], size=len(seg))
    scores[600:] = rng.choice([0.0, -0.0], size=200)
    scores[[650, 720]] = [1.0, 0.5]
    ids = rng.permutation(len(seg)).astype(np.int64)
    zeros = np.signbit(scores[600:][scores[600:] == 0.0])
    assert zeros.any() and not zeros.all()
    kept = columnar._contenders(4, scores, seg, sizes)
    assert kept is not None
    # The zero-tied segment keeps every candidate, the others under half.
    kept_per_segment = np.bincount(seg[kept], minlength=4)
    assert kept_per_segment[3] == 200 and kept_per_segment[:3].sum() < 300
    rows = _rows(4, scores, ids, seg, 4)
    for s in range(4):
        member = seg == s
        scan = columnar_top_k(4, scores[member], ids[member])
        assert _signed(rows[s]) == _signed(
            [(e.score, e.advertiser_id) for e in scan.entries]
        )
    assert [score for score, _ in rows[3]] == [1.0, 0.5, 0.0, 0.0]
    _assert_routes_agree(4, scores, ids, seg, 4)
    # Out of segment order the same batch is sorted whole.
    shuffled = rng.permutation(len(seg))
    unordered = columnar._contenders(
        4, scores[shuffled], seg[shuffled], sizes
    )
    assert unordered is None


@pytest.mark.parametrize(
    "sizes", [[3], [1, 0, 2], [0, 0, 5, 1], [2, 2, 2], [0, 4, 0]]
)
def test_table_cells_lay_every_segment_out_as_a_row(sizes):
    # Entry j of segment s lands in row s, column j of the table; empty
    # segments leave their row to the padding.
    sizes = np.array(sizes, dtype=np.int64)
    widest = int(sizes.max())
    expected = [s * widest + j for s, n in enumerate(sizes) for j in range(n)]
    assert columnar._table_cells(sizes, widest).tolist() == expected


def _batch(sizes, scores, ids):
    """A batch grouped by segment: ``sizes`` candidates per segment."""
    sizes = np.asarray(sizes, dtype=np.int64)
    seg = np.repeat(np.arange(len(sizes)), sizes)
    return (
        np.asarray(scores, dtype=np.float64),
        np.asarray(ids, dtype=np.int64),
        seg,
        len(sizes),
    )


def _pool(rng, sizes):
    """Tie-heavy scores with both zeros and ids in no order."""
    n = int(np.sum(sizes))
    scores = rng.choice([0.0, -0.0, 0.5, 1.0, 2.5], size=n)
    return _batch(sizes, scores, rng.permutation(n))


def _minus_infinity(rng):
    # Segment 0: two finite scores, the rest -inf, so the k-th best is
    # -inf and the -inf scores rank by id; segment 2 is all -inf and
    # shorter than k, so its row's padding ties its scores on -score
    # and must still sort last.
    sizes = [300, 250, 3]
    scores = rng.choice([0.5, 1.0, 2.5], size=553)
    scores[2:300] = -np.inf
    scores[550:] = -np.inf
    return _batch(sizes, scores, rng.permutation(553))


# Batches of at least SEGMENT_FILTER_MIN_CANDIDATES, each with whether
# the k-th-best filter takes it: ``(k, builder, filtered)``.
EDGE_SHAPES = {
    "empty_segments_between": (
        4, lambda rng: _pool(rng, [0, 300, 0, 0, 250, 0]), True
    ),
    "k_of_one": (1, lambda rng: _pool(rng, [200, 200, 200]), True),
    "one_over_k_everywhere": (4, lambda rng: _pool(rng, [5] * 130), True),
    "every_score_tied": (
        4, lambda rng: _batch([256, 256], np.ones(512), rng.permutation(512)),
        True,
    ),
    "minus_infinity_at_the_kth_best": (4, _minus_infinity, True),
    "ids_descending": (
        4,
        lambda rng: _batch(
            [300, 300], rng.choice([0.0, 1.0, 2.0], size=600),
            np.arange(600)[::-1],
        ),
        True,
    ),
    # A table padded to the long segment would be 401 x 2000 cells.
    "one_long_beside_many_short": (
        4, lambda rng: _pool(rng, [2000] + [3] * 400), False
    ),
    "no_segment_longer_than_k": (4, lambda rng: _pool(rng, [3] * 200), False),
}


@pytest.mark.parametrize("shape", sorted(EDGE_SHAPES))
def test_edge_shapes_rank_as_columnar_top_k_on_either_route(shape):
    k, build, filtered = EDGE_SHAPES[shape]
    scores, ids, seg, seg_count = build(np.random.default_rng(11))
    assert len(seg) >= columnar.SEGMENT_FILTER_MIN_CANDIDATES
    sizes = np.bincount(seg, minlength=seg_count)
    kept = columnar._contenders(k, scores, seg, sizes)
    assert (kept is not None) == filtered
    rows = _rows(k, scores, ids, seg, seg_count)
    for s in range(seg_count):
        member = seg == s
        scan = columnar_top_k(k, scores[member], ids[member])
        assert _signed(rows[s]) == _signed(
            [(e.score, e.advertiser_id) for e in scan.entries]
        )
    _assert_routes_agree(k, scores, ids, seg, seg_count)
