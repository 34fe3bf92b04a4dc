"""Unit tests for the struct-of-arrays advertiser store.

The columnar layout's contract is *transparency*: every array-side read
must agree with the object it transposed, every kernel must reproduce
the object algorithm byte for byte (tie-breaks included), and every
mutation routed through the store must be instantly visible through the
zero-copy views.  These tests pin each piece in isolation; the
engine-level layout differential (``tests/engine``) pins the composite.
"""

from __future__ import annotations

import pytest

np = pytest.importorskip("numpy")

from repro.core.advertiser import Advertiser
from repro.core.columnar import (
    UNBUDGETED_CENTS,
    AdvertiserView,
    ArrayScoreMap,
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
            assert store.bids[row] == source.bid
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

    def test_churn_rereads_the_touched_phrase_only(self):
        store = self._store()
        store.phrase_rows("shoes")
        store.add_interest(7, "shoes")
        store.remove_interest(3, "boots")
        built = store._phrases_of.reads
        # Untouched: still off the index.
        assert store.ids[store.phrase_rows("sandals")].tolist() == [4]
        assert store._phrases_of.reads == built
        # Touched: one scan of the phrase sets each, then cached again.
        assert store.ids[store.phrase_rows("shoes")].tolist() == [1, 3, 4, 7]
        assert store.ids[store.phrase_rows("boots")].tolist() == [7]
        assert store._phrases_of.reads == built + 2 * store.size
        store.phrase_rows("shoes")
        assert store._phrases_of.reads == built + 2 * store.size

    def test_renumbering_drops_the_index(self):
        store = ColumnarStore(_population())
        store.phrase_rows("shoes")
        store.add_advertiser(
            Advertiser(2, bid=1.0, ctr_factor=1.0, phrases=frozenset({"boots"}))
        )
        assert store._phrase_members is None
        assert store.ids[store.phrase_rows("boots")].tolist() == [2, 3, 7]
        assert store.phrase_rows("nobody's phrase").tolist() == []


class TestAdvertiserView:
    def test_view_duck_types_the_object(self):
        advertisers = _population()
        store = ColumnarStore(advertisers)
        for source in advertisers:
            view = store.advertiser(source.advertiser_id)
            assert view.bid == source.bid
            assert view.ctr_factor == source.ctr_factor
            assert view.daily_budget == source.daily_budget
            assert view.phrases == source.phrases
            assert view.score() == source.score()
            for phrase in source.phrases:
                assert view.ctr_factor_for(phrase) == (
                    source.ctr_factor_for(phrase)
                )
                assert view.score(phrase) == source.score(phrase)
                assert view.interested_in(phrase)
            assert view == source and hash(view) == hash(source)
            assert view.materialize() == source

    def test_view_sees_store_mutations_instantly(self):
        store = ColumnarStore(_population())
        view = store.advertiser(3)
        store.set_bid(3, 9.99)
        assert view.bid == 9.99
        store.set_budget(3, 1.0)
        assert view.daily_budget == 1.0
        store.set_budget(3, float("inf"))
        assert view.daily_budget == float("inf")

    def test_view_of_departed_advertiser_raises(self):
        store = ColumnarStore(_population())
        view = store.advertiser(7)
        store.remove_advertiser(7)
        with pytest.raises(InvalidAuctionError, match="left the market"):
            _ = view.bid

    def test_views_are_ascending_and_zero_copy(self):
        store = ColumnarStore(_population())
        views = store.views()
        assert [v.advertiser_id for v in views] == [1, 3, 4, 7]
        assert all(isinstance(v, AdvertiserView) for v in views)


class TestMutations:
    def test_set_bid_updates_both_columns(self):
        store = ColumnarStore(_population())
        store.set_bid(4, 3.33)
        row = store.row_of(4)
        assert store.bids[row] == 3.33
        assert store.bid_cents[row] == 333
        with pytest.raises(InvalidAuctionError):
            store.set_bid(4, -1.0)

    def test_interest_churn_invalidates_phrase_caches(self):
        store = ColumnarStore(_population())
        before = [int(store.ids[r]) for r in store.phrase_rows("sandals")]
        assert before == [4]
        store.add_interest(1, "sandals")
        assert [int(store.ids[r])
                for r in store.phrase_rows("sandals")] == [1, 4]
        store.remove_interest(4, "sandals")
        assert [int(store.ids[r])
                for r in store.phrase_rows("sandals")] == [1]

    def test_absorb_syncs_columns_memberships_and_overrides(self):
        store = ColumnarStore(_population())
        mutated = store.advertiser(7).materialize().with_bid(5.0)
        store.absorb(mutated)
        assert store.bids[store.row_of(7)] == 5.0
        replacement = Advertiser(
            7, bid=5.0, ctr_factor=0.6, daily_budget=3.5,
            phrases=frozenset({"shoes"}),
        )
        store.absorb(replacement)
        assert 7 in [int(store.ids[r]) for r in store.phrase_rows("shoes")]
        assert 7 not in [
            int(store.ids[r]) for r in store.phrase_rows("boots")
        ]
        # The boots override died with the membership.
        assert store.advertiser(7).phrase_ctr_factors == {}

    def test_absorb_of_unknown_advertiser_adds_a_row(self):
        store = ColumnarStore(_population())
        store.absorb(Advertiser(2, bid=1.0, phrases=frozenset({"shoes"})))
        assert list(store.ids) == [1, 2, 3, 4, 7]
        assert 2 in [int(store.ids[r]) for r in store.phrase_rows("shoes")]

    def test_add_remove_advertiser_renumbers(self):
        store = ColumnarStore(_population())
        store.add_advertiser(Advertiser(0, bid=0.5,
                                        phrases=frozenset({"boots"})))
        assert list(store.ids) == [0, 1, 3, 4, 7]
        with pytest.raises(InvalidAuctionError, match="duplicate"):
            store.add_advertiser(Advertiser(0, bid=0.5))
        store.remove_advertiser(3)
        assert list(store.ids) == [0, 1, 4, 7]
        assert [int(store.ids[r])
                for r in store.phrase_rows("boots")] == [0, 7]


class TestArrayScoreMap:
    def test_mapping_protocol_matches_dict(self):
        ids = np.array([2, 5, 9], dtype=np.int64)
        values = np.array([0.5, 1.5, 2.5], dtype=np.float64)
        mapping = ArrayScoreMap(ids, values)
        expected = {2: 0.5, 5: 1.5, 9: 2.5}
        assert dict(mapping) == expected
        assert dict(mapping.items()) == expected
        assert len(mapping) == 3
        assert mapping[5] == 1.5
        assert mapping.get(5) == 1.5
        assert mapping.get(6, -1.0) == -1.0
        assert 9 in mapping and 10 not in mapping and "x" not in mapping
        with pytest.raises(KeyError):
            mapping[10]
        with pytest.raises(KeyError):
            mapping[1]  # below the smallest id

    def test_parallel_length_enforced(self):
        with pytest.raises(InvalidAuctionError, match="parallel"):
            ArrayScoreMap(np.array([1]), np.array([1.0, 2.0]))


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
