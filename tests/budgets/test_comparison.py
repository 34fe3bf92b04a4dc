"""Tests for bound-driven comparison and top-k under uncertainty."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.budgets.comparison import (
    BoundedBid,
    compare_throttled_bids,
    top_k_throttled,
)
from repro.budgets.throttle import ThrottleProblem, exact_throttled_bid
from repro.errors import BudgetError
from tests.conftest import throttle_ads


def bounded(advertiser_id, bid, budget, auctions=1, ads=()):
    return BoundedBid(
        advertiser_id, ThrottleProblem(bid, budget, auctions, ads)
    )


class TestBoundedBid:
    def test_initial_bounds_contain_exact(self):
        bid = bounded(1, 20, 30, 2, [(10, 0.5), (15, 0.3)])
        exact = exact_throttled_bid(bid.problem)
        assert bid.bounds.lo - 1e-9 <= exact <= bid.bounds.hi + 1e-9

    def test_refine_tightens_until_exact(self):
        bid = bounded(1, 20, 30, 2, [(10, 0.5), (15, 0.3), (5, 0.9)])
        widths = [bid.bounds.width]
        while bid.refine():
            widths.append(bid.bounds.width)
        assert bid.exact
        assert widths[-1] < 1e-6
        assert all(a >= b - 1e-9 for a, b in zip(widths, widths[1:]))

    @given(
        ads=throttle_ads(),
        bid=st.integers(min_value=0, max_value=150),
        budget=st.integers(min_value=0, max_value=400),
        auctions=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=150, deadline=None)
    def test_intersection_tightens_and_contains_exact_at_every_depth(
        self, ads, bid, budget, auctions
    ):
        problem = ThrottleProblem(min(bid, budget), budget, auctions, ads)
        exact = exact_throttled_bid(problem)
        bid = BoundedBid(0, problem)
        previous = bid.bounds
        assert exact in previous
        while bid.refine():
            current = bid.bounds
            # The running intersection only shrinks -- exactly, not up
            # to tolerance: lo is a max, hi is a min.
            assert current.lo >= previous.lo
            assert current.hi <= previous.hi
            assert exact in current
            previous = current
        assert bid.exact
        assert abs(bid.bounds.midpoint - exact) <= 1e-6

    def test_refine_on_exact_returns_false(self):
        bid = bounded(1, 20, 1000)
        assert bid.exact
        assert not bid.refine()

    def test_resolve_exact_pins_bounds(self):
        bid = bounded(1, 20, 30, 2, [(10, 0.5)])
        value = bid.resolve_exact()
        assert bid.bounds.lo == bid.bounds.hi == value


class TestCompare:
    def test_self_comparison_rejected(self):
        a = bounded(1, 10, 100)
        b = bounded(1, 12, 100)
        with pytest.raises(BudgetError):
            compare_throttled_bids(a, b)

    def test_clearly_separated_no_refinement(self):
        rich = bounded(1, 50, 10_000)
        poor = bounded(2, 5, 10_000)
        assert compare_throttled_bids(rich, poor) == 1
        assert rich.refinements == 0 and poor.refinements == 0

    def test_equal_values_tie_break_by_id(self):
        a = bounded(1, 10, 10_000)
        b = bounded(2, 10, 10_000)
        assert compare_throttled_bids(a, b) == 1
        assert compare_throttled_bids(b, a) == -1

    @settings(deadline=None, max_examples=60)
    @given(
        a_ads=throttle_ads(max_ads=4),
        b_ads=throttle_ads(max_ads=4),
        a_bid=st.integers(min_value=1, max_value=40),
        b_bid=st.integers(min_value=1, max_value=40),
        budget=st.integers(min_value=5, max_value=120),
    )
    def test_agrees_with_exact_order(self, a_ads, b_ads, a_bid, b_bid, budget):
        a = bounded(1, a_bid, budget, 2, a_ads)
        b = bounded(2, b_bid, budget, 2, b_ads)
        outcome = compare_throttled_bids(a, b)
        exact_a = exact_throttled_bid(a.problem)
        exact_b = exact_throttled_bid(b.problem)
        if abs(exact_a - exact_b) > 1e-6:
            assert outcome == (1 if exact_a > exact_b else -1)
        else:
            assert outcome == (1 if a.advertiser_id < b.advertiser_id else -1)


class TestTopK:
    def test_k_must_be_positive(self):
        with pytest.raises(BudgetError):
            top_k_throttled([bounded(1, 10, 100)], 0)

    def test_selects_exact_top_k(self):
        bids = [
            bounded(i, 10 + i, 40, 2, [(5 * (i % 3), 0.5)] if i % 2 else [])
            for i in range(12)
        ]
        winners, stats = top_k_throttled(bids, 4)
        expected = sorted(
            bids,
            key=lambda b: (-exact_throttled_bid(b.problem), b.advertiser_id),
        )[:4]
        assert [w.advertiser_id for w in winners] == [
            w.advertiser_id for w in expected
        ]
        assert stats.comparisons > 0

    def test_pruning_skips_hopeless_contenders(self):
        strong = [bounded(i, 100, 10_000) for i in range(3)]
        weak = [bounded(10 + i, 1, 10_000) for i in range(5)]
        winners, stats = top_k_throttled(strong + weak, 3)
        assert {w.advertiser_id for w in winners} == {0, 1, 2}
        # The weak contenders were rejected by the bound test alone:
        # 3 insertions for the strong ones, no comparisons for the weak.
        assert stats.comparisons <= 6

    @settings(
        deadline=None,
        max_examples=30,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=40),
                st.integers(min_value=5, max_value=120),
                throttle_ads(max_ads=3),
            ),
            min_size=1,
            max_size=10,
        ),
        st.integers(min_value=1, max_value=4),
    )
    def test_matches_exact_selection(self, specs, k):
        bids = [
            bounded(i, bid, budget, 2, ads)
            for i, (bid, budget, ads) in enumerate(specs)
        ]
        winners, _stats = top_k_throttled(bids, k)
        expected = sorted(
            bids,
            key=lambda b: (-exact_throttled_bid(b.problem), b.advertiser_id),
        )[:k]
        assert [w.advertiser_id for w in winners] == [
            w.advertiser_id for w in expected
        ]


class TestWorkAccounting:
    """The counters the benchmarks gate on must not under-report."""

    def test_resolve_exact_counts_the_skipped_depths(self):
        # Jumping to the exact value is equivalent to expanding every
        # remaining ad at once; the shortcut must not hide that work.
        bid = bounded(1, 80, 120, 2, [(40, 0.5), (30, 0.4), (20, 0.3)])
        bid.refine()
        assert bid.refinements == 1
        bid.resolve_exact()
        assert bid.refinements == 3
        # Already exact: nothing further to account for.
        bid.resolve_exact()
        assert bid.refinements == 3

    def test_pre_exact_bids_are_not_selection_fallbacks(self):
        # Debt-free bids arrive exact (their interval is a point); the
        # selection never drove them to exactness, so counting them
        # would overstate the bound machinery's failures.
        bids = [bounded(i, 50 + i, 200) for i in range(4)]
        assert all(bid.exact for bid in bids)
        _, stats = top_k_throttled(bids, 2)
        assert stats.exact_fallbacks == 0

    def test_tie_driven_exactness_is_counted(self):
        # Two identical throttled problems: their intervals can never
        # separate, so selection must resolve both exactly and break the
        # tie by id -- and the counter must say so.
        ads = [(40, 0.5)]
        first = bounded(1, 80, 100, 2, ads)
        second = bounded(2, 80, 100, 2, ads)
        winners, stats = top_k_throttled([first, second], 2)
        assert [w.advertiser_id for w in winners] == [1, 2]
        assert stats.exact_fallbacks == 2
        assert stats.refinements >= 2
