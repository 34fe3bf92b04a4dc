"""Tests for fragment identification (stage 1 of the heuristic)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.plans.fragments import (
    Fragment,
    fragment_cover_counts,
    identify_fragments,
)
from repro.plans.instance import AggregateQuery, SharedAggregationInstance
from tests.conftest import query_families


def bit_string(instance, fragment):
    """The Section II-D.1 membership bit string of ``fragment``: entry
    ``i`` says whether it lies in the instance's ``i``-th query."""
    return tuple(q.name in fragment.query_names for q in instance.queries)


class TestShoeStoreFragments:
    """The Section II-B example: general, sports, fashion stores."""

    @pytest.fixture
    def instance(self):
        general = [f"g{i}" for i in range(6)]
        sports = [f"s{i}" for i in range(3)]
        fashion = [f"f{i}" for i in range(2)]
        return SharedAggregationInstance(
            [
                AggregateQuery("hiking boots", general + sports),
                AggregateQuery("high-heels", general + fashion),
            ]
        )

    def test_three_fragments(self, instance):
        fragments = identify_fragments(instance)
        assert len(fragments) == 3

    def test_fragment_sizes(self, instance):
        sizes = sorted(len(f) for f in identify_fragments(instance))
        assert sizes == [2, 3, 6]

    def test_fragment_query_names(self, instance):
        fragments = {
            f.query_names: f.variables for f in identify_fragments(instance)
        }
        assert frozenset(
            fragments[("high-heels", "hiking boots")]
        ) == frozenset({f"g{i}" for i in range(6)})
        assert fragments[("hiking boots",)] == frozenset(
            {f"s{i}" for i in range(3)}
        )
        assert fragments[("high-heels",)] == frozenset({"f0", "f1"})

    def test_cover_counts(self, instance):
        fragments = identify_fragments(instance)
        counts = fragment_cover_counts(instance, fragments)
        assert counts == {"hiking boots": 2, "high-heels": 2}


class TestFragmentProperties:
    def test_variable_in_no_query_excluded(self):
        instance = SharedAggregationInstance(
            [
                AggregateQuery("q", ["a", "b"]),
                AggregateQuery("solo", ["z"]),  # trivial
            ]
        )
        fragments = identify_fragments(instance)
        all_vars = set().union(*(f.variables for f in fragments))
        assert "z" not in all_vars

    @settings(deadline=None, max_examples=40)
    @given(query_families())
    def test_fragments_partition_active_variables(self, family):
        sets, rates = family
        instance = SharedAggregationInstance.from_sets(sets, rates)
        if not instance.queries:
            return
        fragments = identify_fragments(instance)
        seen = set()
        for fragment in fragments:
            assert fragment.variables, "fragments are non-empty"
            assert not (seen & fragment.variables), "fragments are disjoint"
            seen |= fragment.variables
        active = {
            v
            for v in instance.variables
            if any(instance.membership_signature(v))
        }
        assert seen == active

    @settings(deadline=None, max_examples=40)
    @given(query_families())
    def test_same_fragment_means_same_signature(self, family):
        sets, rates = family
        instance = SharedAggregationInstance.from_sets(sets, rates)
        if not instance.queries:
            return
        for fragment in identify_fragments(instance):
            signatures = {
                instance.membership_signature(v) for v in fragment.variables
            }
            assert len(signatures) == 1
            assert signatures.pop() == bit_string(instance, fragment)

    @settings(deadline=None, max_examples=40)
    @given(query_families())
    def test_queries_are_disjoint_unions_of_fragments(self, family):
        sets, rates = family
        instance = SharedAggregationInstance.from_sets(sets, rates)
        if not instance.queries:
            return
        fragments = identify_fragments(instance)
        for query in instance.queries:
            pieces = [
                f.variables for f in fragments if query.name in f.query_names
            ]
            union = set().union(*pieces) if pieces else set()
            assert union == set(query.variables)
            assert sum(len(p) for p in pieces) == len(query.variables)

    def test_fragment_count_at_most_variables(self):
        instance = SharedAggregationInstance.from_sets(
            {
                "q1": ["a", "b", "c"],
                "q2": ["b", "c", "d"],
                "q3": ["c", "d", "a"],
            }
        )
        fragments = identify_fragments(instance)
        assert len(fragments) <= len(instance.variables)


class TestFragmentOrder:
    """Fragments come strictly descending by bool signature, which the
    one-pass grouping gets by sorting each fragment's query indices with
    the sentinel ``m`` appended."""

    @settings(deadline=None, max_examples=60)
    @given(query_families(max_queries=7))
    def test_strictly_descending_by_signature(self, family):
        sets, rates = family
        instance = SharedAggregationInstance.from_sets(sets, rates)
        if not instance.queries:
            return
        signatures = [
            bit_string(instance, f) for f in identify_fragments(instance)
        ]
        assert all(a > b for a, b in zip(signatures, signatures[1:]))

    @settings(deadline=None, max_examples=60)
    @given(query_families(max_queries=7))
    def test_equals_grouping_by_bool_signature(self, family):
        # The definition of Section II-D.1, walked variable by variable.
        sets, rates = family
        instance = SharedAggregationInstance.from_sets(sets, rates)
        if not instance.queries:
            return
        groups = {}
        for variable in instance.variables:
            signature = instance.membership_signature(variable)
            if any(signature):
                groups.setdefault(signature, set()).add(variable)
        names = [q.name for q in instance.queries]
        assert [
            (bit_string(instance, f), f.variables, f.query_names)
            for f in identify_fragments(instance)
        ] == [
            (
                signature,
                frozenset(groups[signature]),
                tuple(n for n, bit in zip(names, signature) if bit),
            )
            for signature in sorted(groups, reverse=True)
        ]

    def test_a_prefix_key_sorts_after_its_extensions(self):
        # a is in q0 alone, b and c in q0 and q3: the index key (0,) is a
        # prefix of (0, 3), but the signature 1000 is below 1001.
        instance = SharedAggregationInstance.from_sets(
            {
                "q0": ["a", "b", "c"],
                "q1": ["x", "y"],
                "q2": ["u", "v"],
                "q3": ["b", "c"],
            }
        )
        fragments = identify_fragments(instance)
        assert [f.query_names for f in fragments] == [
            ("q0", "q3"), ("q0",), ("q1",), ("q2",),
        ]
        assert bit_string(instance, fragments[0]) == (True, False, False, True)
        assert bit_string(instance, fragments[1]) == (True, False, False, False)
        assert fragments[1].variables == frozenset({"a"})
