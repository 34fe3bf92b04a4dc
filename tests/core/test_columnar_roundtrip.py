"""Hypothesis properties for the population -> columns transpose.

The columnar store's whole value rests on one invariant: its columns
and per-phrase arrays describe the *same* population as the
``Advertiser`` objects it was built from, and keep doing so as the
engine that owns it moves bids (``SharedAuctionEngine.set_bids``) --
including the derived per-phrase caches, which are built on first use
and are therefore the easiest place for staleness to hide.

The suite drives randomized bid programs against both an engine's store
and a plain dict-of-``Advertiser`` model, checking full equivalence
after every step.
"""

from __future__ import annotations

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.advertiser import Advertiser
from repro.core.columnar import UNBUDGETED_CENTS, ColumnarStore
from repro.core.money import dollars_to_cents
from repro.engine.pipeline import SharedAuctionEngine

PHRASES = ["p0", "p1", "p2", "p3"]

# Bids and budgets are cent-quantized: the store mirrors them into
# int64 cent columns (as the budget manager does), so only values exact
# in cents round-trip through ``daily_budget``.
bids = st.integers(min_value=1, max_value=5000).map(lambda c: c / 100.0)
factors = st.floats(min_value=0.05, max_value=2.0, allow_nan=False)
budgets = st.one_of(
    st.just(float("inf")),
    st.integers(min_value=1, max_value=50_000).map(lambda c: c / 100.0),
)


@st.composite
def advertisers(draw, advertiser_id):
    phrases = frozenset(
        draw(st.sets(st.sampled_from(PHRASES), min_size=1, max_size=3))
    )
    overrides = {
        phrase: draw(factors)
        for phrase in phrases
        if draw(st.booleans())
    }
    return Advertiser(
        advertiser_id=advertiser_id,
        bid=draw(bids),
        ctr_factor=draw(factors),
        daily_budget=draw(budgets),
        phrases=phrases,
        phrase_ctr_factors=overrides,
    )


@st.composite
def populations(draw, min_size=1, max_size=6):
    ids = sorted(
        draw(
            st.sets(
                st.integers(min_value=0, max_value=20),
                min_size=min_size,
                max_size=max_size,
            )
        )
    )
    return [draw(advertisers(advertiser_id)) for advertiser_id in ids]


def assert_equivalent(store: ColumnarStore, model: dict) -> None:
    """The store and the dict-of-objects model describe one population."""
    assert store.ids.tolist() == sorted(model)
    for advertiser_id, source in model.items():
        row = store.row_of(advertiser_id)
        assert store.bid_cents[row] == dollars_to_cents(source.bid)
        assert store.ctr_factors[row] == source.ctr_factor
        assert store.budget_cents[row] == (
            UNBUDGETED_CENTS
            if source.daily_budget == float("inf")
            else dollars_to_cents(source.daily_budget)
        )
    # Derived per-phrase caches agree with a brute-force recomputation
    # from the model -- the staleness-prone part of the store.
    live_phrases = sorted({p for a in model.values() for p in a.phrases})
    assert store.phrases() == live_phrases
    for phrase in live_phrases:
        members = sorted(
            a.advertiser_id
            for a in model.values()
            if a.interested_in(phrase)
        )
        assert store.ids[store.phrase_rows(phrase)].tolist() == members
        assert store.ids[
            np.flatnonzero(
                np.unpackbits(store.membership_bits(phrase), count=store.size)
            )
        ].tolist() == members
        expected_ctrs = [
            model[m].ctr_factor_for(phrase) for m in members
        ]
        assert list(store.phrase_ctr(phrase)) == expected_ctrs
        ranked = sorted(
            members,
            key=lambda m: (-model[m].ctr_factor_for(phrase), m),
        )
        ranked_rows = store.phrase_rows(phrase)[
            store.phrase_ctr_rank_positions(phrase)
        ]
        assert store.ids[ranked_rows].tolist() == ranked


class TestTranspose:
    """The columns are the population they were built from."""

    @settings(max_examples=60, deadline=None)
    @given(population=populations())
    def test_population_transposes_into_columns(self, population):
        store = ColumnarStore(list(reversed(population)))
        assert_equivalent(store, {a.advertiser_id: a for a in population})


class TestEdits:
    """``set_bids`` moves exactly its rows' bids in the engine's store."""

    @settings(max_examples=50, deadline=None)
    @given(population=populations(), data=st.data())
    def test_bid_program(self, population, data):
        engine = SharedAuctionEngine(population, [0.3], {}, mode="unshared")
        store = engine._store
        model = {a.advertiser_id: a for a in population}
        # Warm every derived cache so staleness (not absence) is tested.
        for phrase in store.phrases():
            store.phrase_ctr_rank_positions(phrase)
            store.membership_bits(phrase)
        for _ in range(data.draw(st.integers(min_value=1, max_value=6))):
            targets = data.draw(
                st.lists(st.sampled_from(sorted(model)), min_size=1, unique=True)
            )
            moved = [data.draw(bids) for _ in targets]
            engine.set_bids(targets, [dollars_to_cents(bid) for bid in moved])
            for target, bid in zip(targets, moved):
                model[target] = model[target].with_bid(bid)
            assert_equivalent(store, model)
