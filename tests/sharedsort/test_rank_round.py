"""Lockstep TA (``rank_round``) equals per-phrase TA (``rank_phrase``).

``ColumnarThresholdKernel`` can answer a round two ways (DESIGN section
20): every phrase advanced through the threshold algorithm's doubling
stages together, which is what the engine runs, or phrase by phrase,
the older route kept as the oracle.  The two must agree on everything an
observer can see -- the ranked entries to the last bit and in order, and
the accesses, stages and stop depths TA is charged.  Ties are the point:
bids and CTR factors are drawn from a few small values, so equal scores
straddle the k-th place and ``kth == threshold`` occurs.
"""

from __future__ import annotations

import tracemalloc

import pytest

np = pytest.importorskip("numpy")

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sharedsort.columnar as sharedsort_columnar
from repro.core.advertiser import Advertiser
from repro.core.columnar import ColumnarStore
from repro.core.topk import TopKList
from repro.engine.pipeline import SharedAuctionEngine
from repro.errors import InvalidPlanError
from repro.instrument import MetricsCollector, names
from repro.sharedsort.columnar import ColumnarThresholdKernel, RankedRound

TA_COUNTERS = (
    names.TA_RUNS,
    names.TA_SORTED_ACCESSES,
    names.TA_RANDOM_ACCESSES,
    names.TA_STAGES,
)


def _occurring_rows(store, phrases):
    member = np.zeros(store.size, dtype=bool)
    for phrase in phrases:
        member[store.phrase_rows(phrase)] = True
    return np.flatnonzero(member)


def _both_routes(store, k, effective, phrases, rows=None):
    """One round through each route on its own kernel and collector.

    ``rows`` is what ``begin_round`` orders: the phrases' members by
    default, or a superset of them.

    Returns:
        ``(ranked, per_phrase, lockstep_collector, loop_collector)``:
        the lockstep answer and ``{phrase: (TopKList, accesses)}`` from
        the loop.
    """
    if rows is None:
        rows = _occurring_rows(store, phrases)
    lockstep_collector = MetricsCollector()
    lockstep = ColumnarThresholdKernel(store, k, lockstep_collector)
    lockstep.begin_round(effective, rows)
    ranked, accesses = lockstep.rank_round(phrases)
    loop_collector = MetricsCollector()
    loop = ColumnarThresholdKernel(store, k, loop_collector)
    loop.begin_round(effective, rows)
    per_phrase = {phrase: loop.rank_phrase(phrase) for phrase in phrases}
    assert accesses.tolist() == [per_phrase[p][1] for p in phrases]
    return ranked, per_phrase, lockstep_collector, loop_collector


def _entries(ranking: TopKList):
    # repr keeps the sign of a zero and every last bit.
    return [(repr(e.score), e.advertiser_id) for e in ranking.entries]


def _assert_identical(store, k, effective, phrases, rows=None):
    ranked, per_phrase, lockstep, loop = _both_routes(
        store, k, effective, phrases, rows
    )
    assert isinstance(ranked, RankedRound)
    assert list(ranked) == list(phrases)
    for phrase in phrases:
        assert _entries(ranked[phrase]) == _entries(per_phrase[phrase][0])
        assert ranked[phrase].k == k
    for counter in TA_COUNTERS:
        assert lockstep.counter(counter) == loop.counter(counter), counter
    assert lockstep.gauges.get(names.TA_STOP_DEPTH) == loop.gauges.get(
        names.TA_STOP_DEPTH
    )
    # The flat hand-off: rows and c are those of the ranked ids.
    lens, scores, ids, rows, c = ranked.arrays
    assert lens.tolist() == [len(ranked[p].entries) for p in phrases]
    assert store.ids[rows].tolist() == ids.tolist()
    at = 0
    for phrase, count in zip(phrases, lens.tolist()):
        for advertiser_id, factor in zip(
            ids[at:at + count].tolist(), c[at:at + count].tolist()
        ):
            assert factor == store.advertiser(advertiser_id).ctr_factor_for(
                phrase
            )
        at += count
    return ranked


# ----------------------------------------------------------------------
# hypothesis: tie-heavy markets
# ----------------------------------------------------------------------
PHRASES = tuple(f"q{index}" for index in range(6))
# A few small values, so that products collide, and two that are not
# dyadic, so that a different operation order shows in the last bit.
small_factor = st.sampled_from((0.0, 0.5, 1.0, 1.0, 2.0, 3.0, 0.3, 1.7))
small_bid = st.sampled_from(
    (0.0, 100.0, 200.0, 200.0, 300.0, 400.0, 600.0, 137.0)
)


@st.composite
def markets(draw):
    size = draw(st.integers(min_value=1, max_value=24))
    ids = draw(
        st.lists(
            st.integers(min_value=0, max_value=60),
            min_size=size, max_size=size, unique=True,
        )
    )
    advertisers = []
    for advertiser_id in ids:
        phrases = draw(st.sets(st.sampled_from(PHRASES)))
        overridden = (
            draw(st.sets(st.sampled_from(sorted(phrases)))) if phrases else ()
        )
        advertisers.append(
            Advertiser(
                advertiser_id,
                bid=1.0,
                ctr_factor=draw(small_factor),
                phrases=frozenset(phrases),
                phrase_ctr_factors={
                    phrase: draw(small_factor) for phrase in sorted(overridden)
                },
            )
        )
    effective = np.asarray(
        draw(st.lists(small_bid, min_size=size, max_size=size)),
        dtype=np.float64,
    )
    k = draw(st.integers(min_value=1, max_value=5))
    occurring = draw(
        st.lists(st.sampled_from(PHRASES), min_size=1, unique=True)
    )
    return advertisers, effective, k, occurring


@settings(max_examples=300, deadline=None)
@given(market=markets())
def test_lockstep_equals_per_phrase(market):
    advertisers, effective, k, occurring = market
    store = ColumnarStore(advertisers)
    _assert_identical(store, k, effective, occurring)


# ----------------------------------------------------------------------
# pinned examples
# ----------------------------------------------------------------------
def _market(members, phrase="p"):
    """``members``: ``(id, effective_cents, c)`` of one phrase."""
    store = ColumnarStore(
        [
            Advertiser(i, 1.0, ctr_factor=c, phrases=frozenset({phrase}))
            for i, _, c in members
        ]
    )
    effective = np.zeros(store.size, dtype=np.float64)
    for i, cents, _ in members:
        effective[store.row_of(i)] = cents
    return store, effective


def _ranked_ids(ranked, phrase="p"):
    return [e.advertiser_id for e in ranked[phrase].entries]


class TestPinned:
    def test_kth_equal_to_threshold_keeps_reading(self):
        # k = 2, first depth 2.  Bid prefix {9, 0}, CTR prefix {1, 3}:
        # seen scores 8 (id 9), 2, 8 (id 1), 2, so kth = 8, and the
        # threshold is 400/100 * 2 = 8 as well.  Unseen advertiser 5
        # (400, 2) scores 8 too and beats 9 on the id: stopping on
        # kth >= threshold would answer [1, 9].
        members = [
            (9, 800.0, 1.0), (0, 400.0, 0.5), (1, 400.0, 2.0),
            (5, 400.0, 2.0), (3, 100.0, 2.0),
        ]
        store, effective = _market(members)
        ranked = _assert_identical(store, 2, effective, ["p"])
        assert _ranked_ids(ranked) == [1, 5]
        assert [e.score for e in ranked["p"].entries] == [8.0, 8.0]

    def test_duplicate_scores_straddle_the_kth_place(self):
        # Six advertisers score 6.0 four different ways around k = 3;
        # the three smallest ids among them are the answer.
        members = [
            (20, 600.0, 1.0), (4, 300.0, 2.0), (11, 200.0, 3.0),
            (7, 600.0, 1.0), (2, 100.0, 6.0), (15, 300.0, 2.0),
            (1, 100.0, 1.0), (30, 500.0, 1.0),
        ]
        store, effective = _market(members)
        ranked = _assert_identical(store, 3, effective, ["p"])
        assert _ranked_ids(ranked) == [2, 4, 7]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17])
    def test_sizes_around_k_and_the_stage_boundaries(self, n):
        # k = 4: n < k, n == k, and n == d at the second and third
        # stage (8, 16), where the lists run out exactly.
        members = [
            (i, float(100 * (1 + i % 3)), float(1 + (i * 7) % 4))
            for i in range(n)
        ]
        store, effective = _market(members)
        ranked = _assert_identical(store, 4, effective, ["p"])
        assert len(ranked["p"].entries) == min(n, 4)

    def test_zero_ctr_factor_and_signed_zero(self):
        # c = 0 scores 0.0, a -0.0 effective bid scores -0.0: equal in
        # the order (the id decides), distinct in the stored float.
        members = [
            (3, 500.0, 0.0), (1, -0.0, 2.0), (2, 0.0, 1.0), (8, 100.0, 0.0),
            (5, 100.0, 1.0),
        ]
        store, effective = _market(members)
        ranked = _assert_identical(store, 4, effective, ["p"])
        assert _entries(ranked["p"]) == [
            ("1.0", 5), ("-0.0", 1), ("0.0", 2), ("0.0", 3)
        ]

    def test_one_long_phrase_beside_many_short_ones(self):
        # A table padded to the longest phrase would be 401 x 2000
        # cells; the lockstep stages only ever hold tables of the
        # still-active phrases at the current depth.
        long_members = 2000
        short = [f"s{index:03d}" for index in range(400)]
        advertisers = [
            Advertiser(
                i, 1.0, ctr_factor=1.0 + (i * 37 % 101) / 101.0,
                # The first 1200 also form the 400 three-member phrases.
                phrases=frozenset(["long", *short[i // 3:i // 3 + 1]]),
            )
            for i in range(long_members)
        ]
        store = ColumnarStore(advertisers)
        effective = np.asarray(
            [100.0 + (i * 53 % 997) for i in range(long_members)]
        )
        phrases = sorted(["long", *short])
        cells = long_members + 3 * len(short)
        kernel = ColumnarThresholdKernel(store, 4)
        rows = _occurring_rows(store, phrases)
        kernel.begin_round(effective, rows)
        kernel.rank_round(phrases)  # warm the store's per-phrase caches
        tracemalloc.start()
        try:
            kernel.rank_round(phrases)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Every live array together, not just the largest: a few dozen
        # bytes a cell.  The padded table alone would be 6.4 MB.
        assert peak < 40 * 8 * cells
        _assert_identical(store, 4, effective, phrases)

    def test_phrase_order_does_not_matter(self):
        advertisers = [
            Advertiser(
                i, 1.0, ctr_factor=float(1 + i % 3),
                phrases=frozenset(
                    p for j, p in enumerate(PHRASES) if (i + j) % 2
                ),
                phrase_ctr_factors={PHRASES[i % 6]: float(1 + i % 4)},
            )
            for i in range(30)
        ]
        store = ColumnarStore(advertisers)
        effective = np.asarray([float(100 * (1 + i % 5)) for i in range(30)])
        forward = _assert_identical(store, 3, effective, list(PHRASES))
        shuffled = [PHRASES[i] for i in (4, 0, 5, 2, 1, 3)]
        backward = _assert_identical(store, 3, effective, shuffled)
        for phrase in PHRASES:
            assert _entries(forward[phrase]) == _entries(backward[phrase])

    def test_an_order_covering_rows_outside_the_round(self):
        advertisers = [
            Advertiser(
                i, 1.0, ctr_factor=float(1 + i % 3),
                phrases=frozenset({PHRASES[i % 3], PHRASES[3 + i % 2]}),
            )
            for i in range(40)
        ]
        store = ColumnarStore(advertisers)
        effective = np.asarray([float(100 * (1 + i % 7)) for i in range(40)])
        # One phrase pair, ranked off an order of all 40 rows: ranks of
        # rows outside the round are written and never read.
        some = [PHRASES[0], PHRASES[3]]
        everyone = np.arange(store.size)
        assert len(everyone) > len(_occurring_rows(store, some))
        ranked = _assert_identical(store, 3, effective, some, everyone)
        assert all(len(ranked[p].entries) == 3 for p in some)


# ----------------------------------------------------------------------
# the store may change between rounds; the kernel keeps nothing of it
# ----------------------------------------------------------------------
def _churn_store():
    return ColumnarStore(
        [
            Advertiser(
                i, 1.0, ctr_factor=float(1 + i % 3),
                phrases=frozenset({"a", "b"} if i % 2 else {"a", "c"}),
                phrase_ctr_factors={"a": float(1 + i % 4)},
            )
            for i in range(1, 13)
        ]
    )


def _effective(store):
    return np.asarray(
        [float(100 * (1 + int(i) % 5)) for i in store.ids], dtype=np.float64
    )


CHURN = {
    "add_advertiser": lambda store: store.add_advertiser(
        Advertiser(
            40, 1.0, ctr_factor=9.0, phrases=frozenset({"a", "b"}),
            phrase_ctr_factors={"b": 7.0},
        )
    ),
    "remove_advertiser": lambda store: store.remove_advertiser(5),
    "add_interest": lambda store: store.add_interest(2, "b"),
    "remove_interest": lambda store: store.remove_interest(3, "a"),
    "ctr_override": lambda store: store.absorb(
        Advertiser(
            4, 1.0, ctr_factor=1.0, phrases=frozenset({"a", "c"}),
            phrase_ctr_factors={"a": 50.0},
        )
    ),
}


def _round_rows(store, phrases, order):
    """What ``begin_round`` orders: the members, or every row."""
    if order == "members":
        return _occurring_rows(store, phrases)
    return np.arange(store.size)


@pytest.mark.parametrize("order", ["members", "everyone"])
@pytest.mark.parametrize("route", ["rank_round", "rank_phrase"])
@pytest.mark.parametrize("change", sorted(CHURN))
def test_a_changed_store_ranks_like_a_fresh_kernel(change, route, order):
    phrases = ["a", "b", "c"]

    def kernel_on(store):
        return ColumnarThresholdKernel(store, 3)

    def answers(kernel, store):
        kernel.begin_round(
            _effective(store), _round_rows(store, phrases, order)
        )
        if route == "rank_round":
            ranked, accesses = kernel.rank_round(phrases)
            return [_entries(ranked[p]) for p in phrases], accesses.tolist()
        results = [kernel.rank_phrase(p) for p in phrases]
        return [_entries(r) for r, _ in results], [a for _, a in results]

    store = _churn_store()
    kernel = kernel_on(store)
    before = answers(kernel, store)
    CHURN[change](store)
    after = answers(kernel, store)
    assert after == answers(kernel_on(store), store)
    assert after != before


@pytest.mark.parametrize("route", ["rank_round", "rank_phrase"])
def test_a_renumbered_store_ranks_like_a_fresh_kernel(route):
    # Advertiser 5 leaves and 40 enters: the store is the size it was,
    # so the kernel's row scratch is not resized, and every row from
    # 5's on names another advertiser.  Nothing held by row may leak.
    phrases = ["a", "b", "c"]
    store = _churn_store()
    kernel = ColumnarThresholdKernel(store, 3)
    kernel.begin_round(_effective(store), _occurring_rows(store, phrases))
    for phrase in phrases:
        kernel.rank_phrase(phrase)
    size = store.size
    CHURN["remove_advertiser"](store)
    CHURN["add_advertiser"](store)
    assert store.size == size

    def answers(kernel):
        kernel.begin_round(_effective(store), _occurring_rows(store, phrases))
        if route == "rank_round":
            ranked, accesses = kernel.rank_round(phrases)
            return [_entries(ranked[p]) for p in phrases], accesses.tolist()
        results = [kernel.rank_phrase(p) for p in phrases]
        return [_entries(r) for r, _ in results], [a for _, a in results]

    assert answers(kernel) == answers(ColumnarThresholdKernel(store, 3))
    ranked_ids = {e[1] for entries in answers(kernel)[0] for e in entries}
    assert 40 in ranked_ids and 5 not in ranked_ids


def _brute_force(store, effective, phrase, k):
    """Every member scored, one sort: the answer TA must reproduce."""
    rows = store.phrase_rows(phrase)
    scores = effective[rows] / 100.0 * store.phrase_ctr(phrase)
    ranked = sorted(
        zip(scores.tolist(), store.ids[rows].tolist()),
        key=lambda entry: (-entry[0], entry[1]),
    )
    return [(repr(score), advertiser) for score, advertiser in ranked[:k]]


@pytest.mark.parametrize("seed", range(10))
def test_a_reused_kernel_ranks_partial_rounds_from_scratch(seed):
    # One kernel across thirty rounds, each ranking a random subset of
    # the phrases off tie-heavy bids that move between rounds: every
    # round's answer is that round's brute-force top-k, and the shared
    # order is exactly the round's rows, nothing kept from before.
    rng = np.random.default_rng(seed)
    phrases = [f"q{index}" for index in range(8)]
    advertisers = [
        Advertiser(
            i, 1.0, ctr_factor=float(rng.choice([0.5, 1.0, 2.0])),
            phrases=frozenset(
                p for p in phrases if rng.random() < 0.4
            ) or frozenset({phrases[i % 8]}),
            phrase_ctr_factors={phrases[i % 8]: float(rng.choice([1.0, 3.0]))},
        )
        for i in range(40)
    ]
    store = ColumnarStore(advertisers)
    k = int(rng.integers(1, 5))
    kernel = ColumnarThresholdKernel(store, k)
    effective = rng.choice([100.0, 200.0, 300.0], size=store.size)
    for _ in range(30):
        moved = rng.random(store.size) < 0.3
        effective[moved] = rng.choice([100.0, 200.0, 300.0], size=moved.sum())
        occurring = sorted(
            str(phrase)
            for phrase in rng.choice(
                phrases, size=int(rng.integers(1, 9)), replace=False
            )
        )
        rows = _occurring_rows(store, occurring)
        assert kernel.begin_round(effective.copy(), rows) == len(rows)
        ranked, _ = kernel.rank_round(occurring)
        for phrase in occurring:
            assert _entries(ranked[phrase]) == _brute_force(
                store, effective, phrase, k
            )


def test_a_member_outside_the_shared_order_is_refused():
    # begin_round was given only phrase b's rows; phrase a has members
    # the round's order never ranked.
    store = _churn_store()
    kernel = ColumnarThresholdKernel(store, 3)
    kernel.begin_round(_effective(store), _occurring_rows(store, ["b"]))
    with pytest.raises(InvalidPlanError, match="not in the round's shared"):
        kernel.rank_round(["a", "b"])


@pytest.mark.parametrize("phrases", [["nobody"], ["a", "nobody", "b"]])
def test_a_phrase_without_members_ranks_empty(phrases):
    store = _churn_store()
    store.remove_interest(1, "b")
    collector = MetricsCollector()
    kernel = ColumnarThresholdKernel(store, 3, collector)
    kernel.begin_round(_effective(store), _occurring_rows(store, phrases))
    ranked, accesses = kernel.rank_round(phrases)
    at = phrases.index("nobody")
    assert ranked["nobody"].entries == ()
    assert ranked["nobody"].k == 3
    assert accesses[at] == 0
    assert collector.counter(names.TA_RUNS) == len(phrases) - 1
    lens = ranked.arrays[0]
    assert lens.tolist() == [0 if p == "nobody" else 3 for p in phrases]


def test_rank_round_before_begin_round():
    with pytest.raises(InvalidPlanError):
        ColumnarThresholdKernel(_churn_store(), 3).rank_round(["a"])


# ----------------------------------------------------------------------
# cost: the engine never goes phrase by phrase
# ----------------------------------------------------------------------
def test_no_round_reaches_the_per_phrase_top_k(monkeypatch):
    phrases = [f"w{index:03d}" for index in range(244)]
    advertisers = [
        Advertiser(
            i, bid=1.0 + (i * 13 % 40) / 10.0,
            ctr_factor=0.5 + (i % 7) / 7.0,
            phrases=frozenset(
                p for j, p in enumerate(phrases)
                if (i * 31 + j * 17) % 5 < 2
            ),
            phrase_ctr_factors={phrases[i % 244]: 0.5 + (i % 3) / 2.0},
        )
        for i in range(60)
    ]
    engine = SharedAuctionEngine(
        advertisers, (0.3, 0.2, 0.1), {p: 1.0 for p in phrases},
        mode="shared-sort", layout="columnar", seed=5,
    )

    def reached(*args, **kwargs):
        raise AssertionError("the engine reached columnar_top_k")

    # rank_phrase ends in it; rank_round sorts the whole round at once.
    monkeypatch.setattr(sharedsort_columnar, "columnar_top_k", reached)
    report = engine.run_round(phrases)
    assert report.displays and len(report.allocations) == 244
    assert engine.run_round(phrases[:1]).displays
    assert engine.serve_query(phrases[7]).displays
