"""Unit tests for the change-feed-driven incremental throttle cache."""

from __future__ import annotations

import random

import pytest

from repro.budgets.incremental import IncrementalThrottleCache
from repro.budgets.outstanding import GeometricDecay
from repro.budgets.throttle import exact_throttled_bid
from repro.engine.budget_manager import BudgetManager
from repro.engine.changefeed import AdvertiserRemoved, ChangeFeed
from repro.errors import BudgetError


def make_cache(budgets, decay=None, verify=False, memoize=True):
    """A manager publishing to a feed, with a cache subscribed to it."""
    feed = ChangeFeed()
    manager = BudgetManager(budgets, decay=decay, changefeed=feed)
    cache = IncrementalThrottleCache(manager, verify=verify, memoize=memoize)
    if memoize:
        cache.connect(feed)
    return manager, cache, feed


def fresh_bid(manager, advertiser_id, bid_cents, num_auctions, round_index):
    """The uncached reference value on the manager's current books."""
    return exact_throttled_bid(
        manager.throttle_problem(
            advertiser_id, bid_cents, num_auctions, round_index
        )
    )


class TestEntryLifecycle:
    def test_exact_bid_matches_uncached_float_identically(self):
        manager, cache, _ = make_cache({1: 300})
        manager.record_display(1, 90, 0.7, 0)
        manager.record_display(1, 80, 0.4, 0)
        cached = cache.exact_bid(1, 120, 3, 0)
        assert cached == fresh_bid(manager, 1, 120, 3, 0)

    def test_clean_advertiser_reuses(self):
        manager, cache, _ = make_cache({1: 300})
        manager.record_display(1, 90, 0.7, 0)
        first = cache.exact_bid(1, 120, 3, 0)
        second = cache.exact_bid(1, 120, 3, 0)
        assert first == second
        assert cache.stats.problems_rebuilt == 1
        assert cache.stats.problems_reused == 1
        # The DP ran once; the reuse served the memoized value.
        assert cache.stats.exact_fallbacks == 1

    def test_display_settle_and_expiry_each_invalidate(self):
        manager, cache, _ = make_cache(
            {1: 300}, decay=GeometricDecay(ratio=1.0, horizon=4)
        )
        handle = manager.record_display(1, 90, 0.7, 0)
        cache.exact_bid(1, 120, 3, 0)

        manager.record_display(1, 80, 0.4, 0)  # display dirties
        assert cache.exact_bid(1, 120, 3, 0) == fresh_bid(manager, 1, 120, 3, 0)

        manager.settle_click(1, 90, 0, handle=handle)  # settlement dirties
        assert cache.exact_bid(1, 120, 3, 0) == fresh_bid(manager, 1, 120, 3, 0)

        manager.expire_outstanding(10)  # expiry dirties
        assert cache.exact_bid(1, 120, 3, 10) == fresh_bid(
            manager, 1, 120, 3, 10
        )
        assert cache.stats.invalidations == 3
        assert cache.stats.problems_rebuilt == 4
        assert cache.stats.problems_reused == 0

    def test_key_change_rebuilds_without_event(self):
        manager, cache, _ = make_cache({1: 300})
        manager.record_display(1, 90, 0.7, 0)
        cache.exact_bid(1, 120, 3, 0)
        # A different bid or multiplicity is a different problem even
        # though no event fired: the key carries it.
        assert cache.exact_bid(1, 110, 3, 0) == fresh_bid(manager, 1, 110, 3, 0)
        assert cache.exact_bid(1, 110, 5, 0) == fresh_bid(manager, 1, 110, 5, 0)
        assert cache.stats.problems_rebuilt == 3
        assert cache.stats.problems_reused == 0

    def test_unconnected_memoized_cache_refuses_to_serve(self):
        manager = BudgetManager({1: 300})
        cache = IncrementalThrottleCache(manager)
        with pytest.raises(BudgetError, match="connect"):
            cache.exact_bid(1, 120, 3, 0)

    def test_memoize_false_never_reuses_and_needs_no_feed(self):
        manager = BudgetManager({1: 300})
        manager.record_display(1, 90, 0.7, 0)
        cache = IncrementalThrottleCache(manager, memoize=False)
        for _ in range(3):
            assert cache.exact_bid(1, 120, 3, 0) == fresh_bid(
                manager, 1, 120, 3, 0
            )
        assert cache.stats.problems_rebuilt == 3
        assert cache.stats.problems_reused == 0
        assert cache.cached_advertisers() == 0

    def test_advertiser_removed_evicts(self):
        manager, cache, feed = make_cache({1: 300})
        manager.record_display(1, 90, 0.7, 0)
        cache.exact_bid(1, 120, 3, 0)
        assert cache.cached_advertisers() == 1
        feed.publish(AdvertiserRemoved(1))
        cache.drain()
        assert cache.cached_advertisers() == 0


class TestRoundScoping:
    def test_no_decay_entries_survive_across_rounds(self):
        manager, cache, _ = make_cache({1: 300})
        manager.record_display(1, 90, 0.7, 0)
        assert not manager.decay_varies
        cache.exact_bid(1, 120, 3, 0)
        # No event between rounds: under NoDecay the snapshot cannot
        # have moved, so round 5 reuses the round-0 entry.
        assert cache.exact_bid(1, 120, 3, 5) == fresh_bid(manager, 1, 120, 3, 5)
        assert cache.stats.problems_reused == 1

    def test_varying_decay_scopes_entries_to_their_round(self):
        manager, cache, _ = make_cache(
            {1: 300}, decay=GeometricDecay(ratio=0.5, horizon=32)
        )
        manager.record_display(1, 90, 0.8, 0)
        assert manager.decay_varies
        cache.exact_bid(1, 120, 3, 0)
        assert cache.exact_bid(1, 120, 3, 0) == fresh_bid(manager, 1, 120, 3, 0)
        assert cache.stats.problems_reused == 1
        # A later round re-weighs the debt with no covering event; the
        # cache must rebuild rather than serve the round-0 snapshot.
        round_3 = cache.exact_bid(1, 120, 3, 3)
        assert round_3 == fresh_bid(manager, 1, 120, 3, 3)
        assert cache.stats.problems_rebuilt == 2

    def test_varying_decay_values_actually_differ_across_rounds(self):
        # The scoping rule above matters because the same books yield
        # different b-hat at different rounds under decay.
        manager, cache, _ = make_cache(
            {1: 200}, decay=GeometricDecay(ratio=0.5, horizon=32)
        )
        manager.record_display(1, 90, 0.8, 0)
        assert cache.exact_bid(1, 120, 3, 0) != cache.exact_bid(1, 120, 3, 3)


class TestVerifyMode:
    def test_sound_feed_passes_verification(self):
        manager, cache, _ = make_cache({1: 300}, verify=True)
        handle = manager.record_display(1, 90, 0.7, 0)
        for _ in range(2):
            assert cache.exact_bid(1, 120, 3, 0) == fresh_bid(
                manager, 1, 120, 3, 0
            )
        manager.settle_click(1, 90, 0, handle=handle)
        for _ in range(2):
            assert cache.exact_bid(1, 120, 3, 0) == fresh_bid(
                manager, 1, 120, 3, 0
            )

    def test_undeclared_book_movement_is_caught(self):
        # A manager that publishes nowhere, and a cache listening on a
        # feed that therefore never hears of its book movements: the
        # second display goes through the manager (the only writer of
        # its ledgers) yet stays undeclared, the entry still looks
        # clean, so the next access takes the reuse path and the verify
        # cross-check must blow up.
        manager = BudgetManager({1: 300})
        cache = IncrementalThrottleCache(manager, verify=True)
        cache.connect(ChangeFeed())
        manager.record_display(1, 90, 0.7, 0)
        cache.exact_bid(1, 120, 3, 0)
        manager.record_display(1, 80, 0.4, 0)
        with pytest.raises(BudgetError, match="unsound change feed"):
            cache.exact_bid(1, 120, 3, 0)


class TestWorkAccounting:
    def test_trivial_problems_are_not_exact_fallbacks(self):
        # A deep budget makes the problem trivially unthrottled: the
        # quick test answers for free and honest accounting must not
        # claim a DP ran.
        manager, cache, _ = make_cache({1: 100_000})
        manager.record_display(1, 90, 0.7, 0)
        assert cache.exact_bid(1, 120, 3, 0) == 120.0
        assert cache.stats.exact_fallbacks == 0

    def test_zero_bid_is_not_an_exact_fallback(self):
        manager, cache, _ = make_cache({1: 0})
        assert cache.exact_bid(1, 120, 3, 0) == 0.0
        assert cache.stats.exact_fallbacks == 0

    def test_nontrivial_problem_counts_one_fallback(self):
        manager, cache, _ = make_cache({1: 150})
        manager.record_display(1, 90, 0.7, 0)
        cache.exact_bid(1, 120, 3, 0)
        assert cache.stats.exact_fallbacks == 1


class TestSelectTop:
    def _throttled_population(self, seed, count):
        """A manager with ``count`` advertisers carrying real debt."""
        rng = random.Random(seed)
        budgets = {}
        specs = []
        feed = ChangeFeed()
        for advertiser_id in range(count):
            budgets[advertiser_id] = rng.randint(120, 400)
        manager = BudgetManager(budgets, changefeed=feed)
        cache = IncrementalThrottleCache(manager)
        cache.connect(feed)
        for advertiser_id in range(count):
            for _ in range(rng.randint(0, 3)):
                manager.record_display(
                    advertiser_id,
                    rng.randint(40, 120),
                    rng.uniform(0.1, 0.9),
                    0,
                )
            specs.append(
                (
                    advertiser_id,
                    rng.randint(60, 140),
                    rng.randint(1, 4),
                    round(rng.uniform(0.2, 1.4), 3),
                )
            )
        return manager, cache, specs

    def _exact_ranking(self, manager, specs):
        """Brute force: every b-hat exactly, engine order."""
        scored = []
        for advertiser_id, bid_cents, num_auctions, factor in specs:
            value = fresh_bid(manager, advertiser_id, bid_cents, num_auctions, 0)
            scored.append((advertiser_id, value, value / 100.0 * factor))
        scored.sort(key=lambda row: (-row[2], row[0]))
        return scored

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force_exact_ranking(self, seed):
        manager, cache, specs = self._throttled_population(seed, 24)
        k = 4
        selected = cache.select_top(specs, k, 0)
        assert selected == self._exact_ranking(manager, specs)[:k]

    def test_k_beyond_population_returns_everyone_ranked(self):
        manager, cache, specs = self._throttled_population(99, 5)
        selected = cache.select_top(specs, 50, 0)
        assert selected == self._exact_ranking(manager, specs)

    def test_k_must_be_positive(self):
        _, cache, _ = make_cache({1: 300})
        with pytest.raises(BudgetError):
            cache.select_top([(1, 100, 1, 1.0)], 0, 0)

    def test_exact_ties_break_by_lower_id(self):
        manager, cache, _ = make_cache({3: 200, 7: 200})
        for advertiser_id in (3, 7):
            manager.record_display(advertiser_id, 90, 0.5, 0)
        selected = cache.select_top(
            [(7, 120, 2, 0.8), (3, 120, 2, 0.8)], 2, 0
        )
        assert [advertiser_id for advertiser_id, _, _ in selected] == [3, 7]

    def test_selection_resolves_fewer_than_everyone(self):
        # The point of bound-driven selection: on a spread-out field
        # most contenders are rejected from depth-0 bounds and never
        # pay the exact DP.
        manager, cache, specs = self._throttled_population(5, 40)
        cache.select_top(specs, 3, 0)
        resolved = sum(
            1
            for entry in cache._entries.values()
            if entry.exact_value is not None
        )
        assert 0 < resolved < len(specs)
        assert cache.stats.exact_fallbacks < len(specs)
        assert cache.stats.bounds_comparisons > 0

    def test_selection_values_are_memoized_across_calls(self):
        manager, cache, specs = self._throttled_population(11, 12)
        first = cache.select_top(specs, 4, 0)
        fallbacks_after_first = cache.stats.exact_fallbacks
        second = cache.select_top(specs, 4, 0)
        assert first == second
        # Clean books: the second pass reuses every entry and runs no
        # new exact computations.
        assert cache.stats.exact_fallbacks == fallbacks_after_first
        assert cache.stats.problems_reused >= len(specs)
