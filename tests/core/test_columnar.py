"""Unit tests for the struct-of-arrays advertiser store.

The store's contract is *transparency*: every array-side read
must agree with the object it transposed, every kernel must reproduce
the object algorithm byte for byte (tie-breaks included), and the
store itself has no editor (bids move only through the engine's
``set_bids``, ``tests/engine/test_pipeline.py``).  These tests pin each
piece in isolation; the
engine-against-reference differential (``tests/engine``) pins the
composite.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.advertiser import Advertiser
from repro.core.columnar import (
    UNBUDGETED_CENTS,
    ColumnarStore,
    columnar_top_k,
)
from repro.core.money import dollars_to_cents
from repro.core.topk import top_k_scan
from repro.errors import InvalidAuctionError
from repro.instrument import MetricsCollector, names


def _population():
    return [
        Advertiser(3, bid=1.25, ctr_factor=0.8, daily_budget=10.0,
                   phrases=frozenset({"shoes", "boots"})),
        Advertiser(1, bid=2.00, ctr_factor=1.1, daily_budget=float("inf"),
                   phrases=frozenset({"shoes"})),
        Advertiser(7, bid=0.40, ctr_factor=0.5, daily_budget=3.5,
                   phrases=frozenset({"boots"}),
                   phrase_ctr_factors={"boots": 0.9}),
        Advertiser(4, bid=1.25, ctr_factor=0.8, daily_budget=2.0,
                   phrases=frozenset({"shoes", "sandals"})),
    ]


class TestColumns:
    def test_rows_sorted_by_id_and_values_transposed(self):
        advertisers = _population()
        store = ColumnarStore.from_advertisers(advertisers)
        assert list(store.ids) == [1, 3, 4, 7]
        by_id = {a.advertiser_id: a for a in advertisers}
        for row, advertiser_id in enumerate(store.ids):
            source = by_id[int(advertiser_id)]
            assert store.bid_cents[row] == dollars_to_cents(source.bid)
            assert store.ctr_factors[row] == source.ctr_factor
        assert store.budget_cents[store.row_of(1)] == UNBUDGETED_CENTS
        assert store.budget_cents[store.row_of(3)] == 1000

    def test_duplicate_id_rejected(self):
        with pytest.raises(InvalidAuctionError, match="duplicate"):
            ColumnarStore([Advertiser(1, bid=1.0), Advertiser(1, bid=2.0)])

    def test_rows_of_translates_and_rejects_unknown(self):
        store = ColumnarStore(_population())
        assert list(store.rows_of([1, 4, 7])) == [
            store.row_of(1), store.row_of(4), store.row_of(7)
        ]
        assert list(store.rows_of([])) == []
        with pytest.raises(InvalidAuctionError, match=r"\[5\]"):
            store.rows_of([1, 5])
        # An id above every stored id must not index out of bounds.
        with pytest.raises(InvalidAuctionError, match=r"\[99\]"):
            store.rows_of([99])


class TestPhraseMembership:
    def test_phrase_rows_and_masks(self):
        store = ColumnarStore(_population())
        shoes = [int(store.ids[r]) for r in store.phrase_rows("shoes")]
        assert shoes == [1, 3, 4]
        mask = store.membership("boots")
        assert [int(store.ids[r]) for r in np.flatnonzero(mask)] == [3, 7]
        bits = store.membership_bits("boots")
        assert np.array_equal(np.unpackbits(bits, count=store.size),
                              mask.astype(np.uint8))

    def test_phrase_ctr_applies_overrides(self):
        store = ColumnarStore(_population())
        rows = store.phrase_rows("boots")
        factors = store.phrase_ctr("boots")
        expected = {3: 0.8, 7: 0.9}  # 7 overrides boots to 0.9
        for position, row in enumerate(rows):
            assert factors[position] == expected[int(store.ids[row])]

    def test_phrase_ctr_rank_rows_orders_by_factor_then_id(self):
        store = ColumnarStore(_population())
        rows = store.phrase_rows("shoes")
        ranked = [int(store.ids[r])
                  for r in rows[store.phrase_ctr_rank_positions("shoes")]]
        # shoes factors: 1 -> 1.1, 3 -> 0.8, 4 -> 0.8 (tie broken by id)
        assert ranked == [1, 3, 4]

    def test_phrases_lists_live_phrases_sorted(self):
        store = ColumnarStore(_population())
        assert store.phrases() == ["boots", "sandals", "shoes"]


class _CountingPhraseSets(dict):
    """``{advertiser: phrases}`` that counts the advertisers read."""

    reads = 0

    def __getitem__(self, advertiser_id):
        self.reads += 1
        return super().__getitem__(advertiser_id)

    def __iter__(self):
        for advertiser_id in super().__iter__():
            self.reads += 1
            yield advertiser_id

    def items(self):
        for item in super().items():
            self.reads += 1
            yield item


class TestPhraseIndexCost:
    """A phrase seen for the first time costs its members, not the
    population: one pass builds the phrase -> members index."""

    def _store(self):
        store = ColumnarStore(_population())
        store._phrases_of = _CountingPhraseSets(store._phrases_of)
        return store

    def test_a_second_new_phrase_reads_no_advertiser(self):
        store = self._store()
        store.phrase_rows("shoes")
        built = store._phrases_of.reads
        assert built >= store.size
        for phrase, members in (("boots", [3, 7]), ("sandals", [4])):
            assert store.ids[store.phrase_rows(phrase)].tolist() == members
        assert store._phrases_of.reads == built

    def test_nothing_is_built_before_the_first_call(self):
        store = self._store()
        assert store._phrases_of.reads == 0
        assert store._phrase_members is None

    def test_a_phrase_nobody_bids_on_has_no_rows(self):
        store = self._store()
        store.phrase_rows("shoes")
        built = store._phrases_of.reads
        assert store.phrase_rows("nobody's phrase").tolist() == []
        assert store._phrases_of.reads == built


class TestUnindexedPhrase:
    """A phrase missing from the index has no members, whichever read
    asks first (membership never changes after construction)."""

    @pytest.mark.parametrize(
        "read",
        [
            "phrase_rows",
            "membership",
            "membership_bits",
            "phrase_ctr",
            "phrase_ctr_rank_positions",
        ],
    )
    def test_every_read_of_it_is_empty(self, read):
        store = ColumnarStore(_population())
        answer = getattr(store, read)("nobody's phrase")
        if read == "membership":
            assert answer.shape == (store.size,) and not answer.any()
        elif read == "membership_bits":
            assert answer.tolist() == [0] * ((store.size + 7) // 8)
        else:
            assert answer.tolist() == []
        assert store.phrase_rows("shoes").tolist() == [0, 1, 2]


class TestNoEditor:
    @pytest.mark.parametrize(
        "method",
        [
            "set_bid",
            "set_budget",
            "add_advertiser",
            "remove_advertiser",
            "add_interest",
            "remove_interest",
            "absorb",
            "advertiser",
            "views",
        ],
    )
    def test_the_store_has_no_editor(self, method):
        # Rows are never added, removed or renumbered, and only the
        # engine that owns a store writes its bids (set_bids), so nothing
        # indexed by row goes stale.
        assert not hasattr(ColumnarStore, method)

    def test_there_is_no_dollar_bid_column(self):
        assert not hasattr(ColumnarStore(_population()), "bids")


class TestColumnarTopK:
    def _assert_matches_scan(self, k, scores, ids):
        vectorized = columnar_top_k(
            k,
            np.asarray(scores, dtype=np.float64),
            np.asarray(ids, dtype=np.int64),
        )
        reference = top_k_scan(k, zip(scores, ids))
        assert vectorized.entries == reference.entries

    def test_matches_heap_scan_on_random_draws(self):
        rng = np.random.default_rng(7)
        for trial in range(25):
            n = int(rng.integers(1, 40))
            ids = rng.permutation(1000)[:n].astype(np.int64)
            scores = rng.uniform(0.0, 5.0, size=n)
            self._assert_matches_scan(int(rng.integers(1, 8)), scores, ids)

    def test_boundary_ties_break_by_id_exactly(self):
        # Five rows tie at the argpartition boundary: the winner set
        # depends entirely on the id tie-break.
        scores = [2.0, 1.0, 1.0, 1.0, 1.0, 1.0]
        ids = [50, 40, 10, 30, 20, 5]
        self._assert_matches_scan(3, scores, ids)

    def test_all_scores_equal(self):
        self._assert_matches_scan(2, [1.0] * 6, [6, 4, 2, 0, 1, 3])

    def test_short_input_and_empty(self):
        self._assert_matches_scan(5, [1.0, 2.0], [1, 0])
        empty = columnar_top_k(
            3, np.empty(0, dtype=np.float64), np.empty(0, dtype=np.int64)
        )
        assert empty.entries == ()

    def test_k_must_be_positive(self):
        with pytest.raises(InvalidAuctionError, match="positive"):
            columnar_top_k(0, np.zeros(1), np.zeros(1, dtype=np.int64))

    def test_counts_like_the_object_scan(self):
        collector = MetricsCollector()
        columnar_top_k(
            2,
            np.array([1.0, 2.0, 3.0]),
            np.array([1, 2, 3], dtype=np.int64),
            collector,
        )
        assert collector.counter(names.TOPK_SCANS) == 1
        assert collector.counter(names.TOPK_SCAN_ENTRIES) == 3
