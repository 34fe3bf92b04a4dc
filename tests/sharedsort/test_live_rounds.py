"""Shared-sort networks across rounds: one plan, a fresh network a round.

The object-layout shared-sort route instantiates the round's operator
network from the standing plan with that round's bids, drains it through
the threshold algorithm, and drops it.  These tests hold that route to
its contract over many rounds of moving bids: every phrase's stream is a
from-scratch ``(-bid, id)`` sort of its members, TA over it is the
brute-force top-k, and no round's network carries work or values into
another.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import InvalidPlanError
from repro.sharedsort.plan import build_shared_sort_plan
from repro.sharedsort.threshold import threshold_top_k


def random_instance(rng, num_phrases=6, num_ads=14):
    phrases = {
        f"q{p}": rng.sample(range(num_ads), rng.randint(2, num_ads))
        for p in range(num_phrases)
    }
    rates = {f"q{p}": rng.choice([1.0, 0.7, 0.4]) for p in range(num_phrases)}
    return phrases, rates


def perturb(rng, bids, fraction):
    """A new bid map with ~fraction of the advertisers changed."""
    out = dict(bids)
    for advertiser in sorted(bids):
        if rng.random() < fraction:
            # A small pool, so equal bids (the id tie-break) are common.
            out[advertiser] = float(rng.randint(1, 6))
    return out


def drain(stream):
    items = []
    index = 0
    while (item := stream.item(index)) is not None:
        items.append(item)
        index += 1
    return items


def fresh_sort(bids, members):
    return sorted(((bids[i], i) for i in members), key=lambda t: (-t[0], t[1]))


@pytest.mark.parametrize("seed", range(8))
def test_twenty_round_run_streams_equal_a_fresh_sort(seed):
    rng = random.Random(seed)
    phrases, rates = random_instance(rng)
    plan = build_shared_sort_plan(phrases, rates)
    bids = {i: float(rng.randint(1, 6)) for i in range(14)}
    previous = None
    for round_index in range(20):
        live = plan.instantiate(bids)
        expected = {
            phrase: fresh_sort(bids, members)
            for phrase, members in phrases.items()
        }
        for phrase in sorted(phrases):
            assert drain(live.stream_for_phrase(phrase)) == expected[phrase], (
                round_index,
                phrase,
            )
        if previous is not None:
            # Last round's network still answers with last round's bids:
            # the two networks share no operator.
            old_live, old_expected = previous
            for phrase in sorted(phrases):
                assert drain(old_live.stream_for_phrase(phrase)) == (
                    old_expected[phrase]
                )
        previous = (live, expected)
        bids = perturb(rng, bids, 0.15)


@pytest.mark.parametrize("seed", range(8))
def test_threshold_over_every_round_matches_brute_force(seed):
    rng = random.Random(100 + seed)
    phrases, rates = random_instance(rng, num_phrases=5, num_ads=12)
    plan = build_shared_sort_plan(phrases, rates)
    bids = {i: float(rng.randint(1, 6)) for i in range(12)}
    factors = {
        phrase: {i: rng.choice([0.5, 1.0, 1.5]) for i in range(12)}
        for phrase in phrases
    }
    ctr_orders = {
        phrase: sorted(members, key=lambda i: (-factors[phrase][i], i))
        for phrase, members in phrases.items()
    }
    k = rng.randint(1, 4)
    for round_index in range(12):
        live = plan.instantiate(bids)
        register = plan.instantiate(bids)
        for phrase in sorted(phrases):
            members = phrases[phrase]
            f = {i: factors[phrase][i] for i in members}
            expected = sorted(members, key=lambda i: (-bids[i] * f[i], i))[:k]
            batched = threshold_top_k(
                k, live.stream_for_phrase(phrase), ctr_orders[phrase], bids, f
            )
            one_at_a_time = threshold_top_k(
                k,
                register.stream_for_phrase(phrase),
                ctr_orders[phrase],
                bids,
                f,
                batched=False,
            )
            assert list(batched.ranking.advertiser_ids()) == expected, (
                round_index,
                phrase,
            )
            assert batched.ranking.entries == one_at_a_time.ranking.entries
            assert batched.sorted_accesses == one_at_a_time.sorted_accesses
            assert batched.threshold == one_at_a_time.threshold
        bids = perturb(rng, bids, 0.2)


def test_identical_bids_cost_identical_work_every_round():
    # Nothing is replayed from an earlier round: the same bids cost the
    # same operator pulls and leaf reads every time.
    rng = random.Random(4)
    phrases, rates = random_instance(rng)
    plan = build_shared_sort_plan(phrases, rates)
    bids = {i: float(rng.randint(1, 6)) for i in range(14)}
    work = []
    for _ in range(3):
        live = plan.instantiate(bids)
        for phrase in sorted(phrases):
            drain(live.stream_for_phrase(phrase))
        work.append((live.total_pulls(), live.leaf_reads()))
    assert work[0] == work[1] == work[2]
    assert work[0][0] > 0
    assert work[0][1] == len({i for ids in phrases.values() for i in ids})


def test_absent_advertisers_are_needed_only_by_their_phrases():
    # Phrase "b" does not occur in round 2, so round 2's bids omit
    # advertisers 5 and 6; "a" still streams, "b" cannot.  When "b"
    # returns in round 3 with 5's bid changed, its stream has the new bid.
    phrases = {"a": [1, 2, 3, 4], "b": [5, 6]}
    plan = build_shared_sort_plan(phrases, 1.0)
    round1 = {1: 1.0, 2: 2.0, 3: 3.0, 4: 4.0, 5: 5.0, 6: 6.0}
    live = plan.instantiate(round1)
    assert drain(live.stream_for_phrase("b")) == [(6.0, 6), (5.0, 5)]
    round2 = {1: 1.5, 2: 2.0, 3: 3.0, 4: 4.0}
    live = plan.instantiate(round2)
    expected = fresh_sort(round2, [1, 2, 3, 4])
    assert drain(live.stream_for_phrase("a")) == expected
    with pytest.raises(InvalidPlanError, match="no bid provided"):
        live.stream_for_phrase("b")
    round3 = {**round1, 1: 1.5, 5: 0.5}
    live = plan.instantiate(round3)
    assert drain(live.stream_for_phrase("b")) == [(6.0, 6), (0.5, 5)]


def test_a_network_holds_its_own_copy_of_the_bids():
    plan = build_shared_sort_plan({"a": [1, 2, 3]}, 1.0)
    bids = {1: 1.0, 2: 2.0, 3: 3.0}
    live = plan.instantiate(bids)
    bids[1] = 9.0  # the next round's bids, written over the same map
    assert drain(live.stream_for_phrase("a")) == [(3.0, 3), (2.0, 2), (1.0, 1)]
