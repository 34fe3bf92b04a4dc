"""The store's phrase CSR against the per-phrase arrays it replaced.

:class:`ColumnarStore` keeps phrase membership as one CSR (phrases
sorted, each phrase's member rows ascending in ``cell_rows``) with two
cell-aligned columns, ``c_i^q`` and the CTR-sorted positions, each
filled for a phrase the first time a read asks.  These tests hold every
view to the arrays built phrase by phrase -- ``np.array`` of the member
rows, the override walk, one ``lexsort`` per phrase -- on random markets
with per-phrase CTR overrides and tied factors, whichever read comes
first; count the override lookups a first sight makes; and check that a
round's cells, one boolean compress, give the engine the ``(rows, m)``
the concatenation of the phrases' rows gave.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.advertiser import Advertiser
from repro.core.columnar import ColumnarStore
from repro.engine import SharedAuctionEngine

PHRASES = [f"p{index}" for index in range(7)]


def _market(seed: int, overrides: bool = True):
    """About 40 advertisers over seven phrases, factors drawn from a few
    values (ties), every third with overrides, some for phrases it does
    not bid on."""
    rng = np.random.default_rng(seed)
    advertisers = []
    for advertiser_id in rng.choice(200, size=int(rng.integers(1, 40)),
                                    replace=False).tolist():
        phrases = frozenset(p for p in PHRASES if rng.random() < 0.35)
        factors = {}
        if overrides and advertiser_id % 3 == 0:
            factors = {
                p: float(rng.choice([0.25, 0.5, 1.0]))
                for p in PHRASES if rng.random() < 0.5
            }
        advertisers.append(Advertiser(
            advertiser_id, bid=1.0,
            ctr_factor=float(rng.choice([0.25, 0.5, 1.0])),
            phrases=phrases, phrase_ctr_factors=factors,
        ))
    return advertisers


def _old_views(advertisers, phrase):
    """``(rows, c_i^q, CTR-sorted positions)`` as the per-phrase caches
    built them."""
    ordered = sorted(advertisers, key=lambda a: a.advertiser_id)
    rows = np.array(
        [row for row, a in enumerate(ordered) if phrase in a.phrases],
        np.int64,
    )
    ids = np.array([a.advertiser_id for a in ordered], np.int64)
    factors = np.array([a.ctr_factor for a in ordered])[rows]
    for position, advertiser_id in enumerate(ids[rows].tolist()):
        override = next(
            a for a in ordered if a.advertiser_id == advertiser_id
        ).phrase_ctr_factors.get(phrase)
        if override is not None:
            factors[position] = override
    return rows, factors, np.lexsort((ids[rows], -factors))


class TestViewsEqualThePerPhraseArrays:
    @settings(deadline=None, max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_every_view_in_any_read_order(self, seed, data):
        advertisers = _market(seed)
        store = ColumnarStore(advertisers)
        live = store.phrases()
        # First sights come one phrase at a time or as a round's mask,
        # in a drawn order.
        batch = (
            data.draw(st.lists(st.sampled_from(live), unique=True))
            if live else []
        )
        if batch:
            occurring, _ = store.phrase_cells(store.phrase_positions(batch))
            if data.draw(st.booleans()):
                store.cell_ctr_rank_positions(occurring)
            else:
                store.cell_ctrs(occurring)
        for phrase in data.draw(st.permutations(live)):
            rows, factors, ranks = _old_views(advertisers, phrase)
            for view, old in (
                (store.phrase_rows(phrase), rows),
                (store.phrase_ctr(phrase), factors),
                (store.phrase_ctr_rank_positions(phrase), ranks),
            ):
                assert view.dtype == old.dtype
                assert view.tobytes() == old.tobytes()
                assert not view.flags.writeable
        # The cell-aligned columns hold the same views end to end.
        everything, cells = store.phrase_cells(np.arange(len(live)))
        assert cells.all()
        starts = store.phrase_starts.tolist()
        for at, phrase in enumerate(live):
            start, end = starts[at], starts[at] + int(store.phrase_lens[at])
            rows, factors, ranks = _old_views(advertisers, phrase)
            assert store.cell_rows[start:end].tolist() == rows.tolist()
            assert store.cell_ctrs(everything)[start:end].tolist() == (
                factors.tolist()
            )
            assert store.cell_ctr_rank_positions(everything)[
                start:end
            ].tolist() == ranks.tolist()

    def test_the_columns_are_read_only(self):
        store = ColumnarStore(_market(3))
        for column in (store.cell_rows, store.phrase_lens, store.phrase_starts):
            with pytest.raises(ValueError):
                column[0] = 1


class _CountingOverrides(dict):
    """The store's override table, counting its lookups."""

    reads = 0

    def __getitem__(self, advertiser_id):
        self.reads += 1
        return super().__getitem__(advertiser_id)


def _counting(store):
    store._overrides_of = _CountingOverrides(store._overrides_of)
    return store._overrides_of


class TestOverrideReads:
    def test_a_market_without_overrides_reads_none(self):
        store = ColumnarStore(_market(5, overrides=False))
        table = _counting(store)
        for phrase in store.phrases():
            store.phrase_ctr_rank_positions(phrase)
        store.cell_ctrs(np.ones(len(store.phrases()), dtype=bool))
        assert table.reads == 0

    @pytest.mark.parametrize("seed", range(5))
    def test_a_first_sight_reads_the_members_with_overrides(self, seed):
        advertisers = _market(seed)
        store = ColumnarStore(advertisers)
        table = _counting(store)
        overridden = {
            a.advertiser_id for a in advertisers if a.phrase_ctr_factors
        }
        expected = 0
        for phrase in store.phrases():
            ids = store.ids[store.phrase_rows(phrase)].tolist()
            expected += len(overridden.intersection(ids))
            store.phrase_ctr(phrase)
            assert table.reads == expected
            # A second read is the filled column: no lookup.
            store.phrase_ctr(phrase)
            store.phrase_ctr_rank_positions(phrase)
            assert table.reads == expected
        assert expected  # the market has overrides on bid phrases


class TestRoundCells:
    @settings(deadline=None, max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_the_compress_gives_the_concatenations_rows_and_m(
        self, seed, data
    ):
        advertisers = _market(seed)
        engine = SharedAuctionEngine(
            advertisers, [0.3, 0.2], {}, mode="unshared"
        )
        store = engine._store
        live = store.phrases()
        if not live:
            return
        phrases = sorted(
            data.draw(st.lists(st.sampled_from(live), min_size=1, unique=True))
        )
        _, cells = store.phrase_cells(store.phrase_positions(phrases))
        concatenated = np.concatenate([store.phrase_rows(p) for p in phrases])
        assert store.cell_rows[cells].tolist() == concatenated.tolist()
        counts = np.bincount(concatenated, minlength=store.size)
        rows, m = engine._round_rows(phrases)
        assert rows.tolist() == np.flatnonzero(counts).tolist()
        assert m.tolist() == counts[rows].tolist()

    def test_positions_of_phrases_nobody_bids_on(self):
        store = ColumnarStore(_market(1))
        live = store.phrases()
        positions = store.phrase_positions([live[-1], "nobody", live[0]])
        assert positions.tolist() == [len(live) - 1, -1, 0]
