"""Hypothesis round-trip properties for the columnar <-> object view.

The columnar store's whole value rests on one invariant: the arrays and
the object API are two views of the *same* population.  Any mutation
expressed through the object API (``with_bid`` copies absorbed back,
phrase churn driven through the engine's maintenance layer) must be
visible in the arrays, and any array-side mutation must
be visible through the views -- including the derived per-phrase caches,
which are invalidated rather than recomputed eagerly and are therefore
the easiest place for staleness to hide.

The suite drives randomized mutation programs against both the store and
a plain dict-of-``Advertiser`` model, checking full equivalence after
every step.
"""

from __future__ import annotations

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.advertiser import Advertiser
from repro.core.columnar import ColumnarStore

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
    assert sorted(int(i) for i in store.ids) == sorted(model)
    for advertiser_id, source in model.items():
        view = store.advertiser(advertiser_id)
        assert view.materialize() == source
        assert view.bid == source.bid
        assert view.ctr_factor == source.ctr_factor
        assert view.daily_budget == source.daily_budget
        assert view.phrases == source.phrases
        assert dict(view.phrase_ctr_factors) == dict(
            source.phrase_ctr_factors
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
        assert [
            int(store.ids[r]) for r in store.phrase_rows(phrase)
        ] == members
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


class TestObjectToColumnar:
    """Mutations born on the object side land in the arrays."""

    @settings(max_examples=60, deadline=None)
    @given(population=populations(), new_bid=bids)
    def test_with_bid_absorb_roundtrip(self, population, new_bid):
        store = ColumnarStore(population)
        model = {a.advertiser_id: a for a in population}
        target = population[0].advertiser_id
        # Express the mutation through the *view*'s object API, absorb
        # the frozen copy, and require the arrays to have moved.
        mutated = store.advertiser(target).with_bid(new_bid)
        store.absorb(mutated)
        model[target] = model[target].with_bid(new_bid)
        assert_equivalent(store, model)

    @settings(max_examples=60, deadline=None)
    @given(
        population=populations(),
        phrase=st.sampled_from(PHRASES),
        data=st.data(),
    )
    def test_phrase_churn_roundtrip(self, population, phrase, data):
        store = ColumnarStore(population)
        model = {a.advertiser_id: a for a in population}
        target = data.draw(st.sampled_from(sorted(model)))
        current = model[target].phrases
        new_phrases = (
            current - {phrase} if phrase in current else current | {phrase}
        )
        if not new_phrases:
            new_phrases = {phrase}
        mutated = model[target].with_phrases(new_phrases)
        store.absorb(mutated)
        model[target] = mutated
        assert_equivalent(store, model)


class TestColumnarToObject:
    """Array-side mutations are visible through the object views."""

    @settings(max_examples=50, deadline=None)
    @given(population=populations(), data=st.data())
    def test_mutation_program(self, population, data):
        store = ColumnarStore(population)
        model = {a.advertiser_id: a for a in population}
        # Warm every derived cache so staleness (not absence) is tested.
        for phrase in store.phrases():
            store.phrase_ctr_rank_positions(phrase)
            store.membership_bits(phrase)
        for _ in range(data.draw(st.integers(min_value=1, max_value=6))):
            action = data.draw(
                st.sampled_from(
                    ["set_bid", "set_budget", "add_interest",
                     "remove_interest", "remove", "add"]
                )
            )
            if action == "add":
                fresh_id = max(model, default=0) + 1
                advertiser = data.draw(advertisers(fresh_id))
                store.add_advertiser(advertiser)
                model[fresh_id] = advertiser
                continue
            target = data.draw(st.sampled_from(sorted(model)))
            if action == "set_bid":
                bid = data.draw(bids)
                store.set_bid(target, bid)
                model[target] = model[target].with_bid(bid)
            elif action == "set_budget":
                budget = data.draw(budgets)
                store.set_budget(target, budget)
                model[target] = Advertiser(
                    target,
                    bid=model[target].bid,
                    ctr_factor=model[target].ctr_factor,
                    daily_budget=budget,
                    phrases=model[target].phrases,
                    phrase_ctr_factors=model[target].phrase_ctr_factors,
                )
            elif action == "add_interest":
                phrase = data.draw(st.sampled_from(PHRASES))
                store.add_interest(target, phrase)
                model[target] = model[target].with_phrases(
                    model[target].phrases | {phrase}
                )
            elif action == "remove_interest":
                phrase = data.draw(st.sampled_from(PHRASES))
                store.remove_interest(target, phrase)
                remaining = model[target].phrases - {phrase}
                model[target] = Advertiser(
                    target,
                    bid=model[target].bid,
                    ctr_factor=model[target].ctr_factor,
                    daily_budget=model[target].daily_budget,
                    phrases=frozenset(remaining),
                    phrase_ctr_factors={
                        p: c
                        for p, c in model[
                            target
                        ].phrase_ctr_factors.items()
                        if p != phrase
                    },
                )
            elif action == "remove" and len(model) > 1:
                store.remove_advertiser(target)
                del model[target]
            assert_equivalent(store, model)

