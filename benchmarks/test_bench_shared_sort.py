"""E7 -- shared sorting: expected full-sort cost and live pulls vs overlap.

Sweeps the fraction of advertisers shared by all phrases.  Higher
overlap means more merge operators satisfy the sharing constraints
(common phrases, disjoint equal-size runs), pushing the shared plan's
expected full-sort cost below independent per-phrase sorting; at zero
overlap the two coincide.  Also measures live operator pulls when the
threshold algorithm only needs the top of each stream.
"""

from __future__ import annotations

import random

import pytest

from repro.metrics.tables import ExperimentTable
from repro.sharedsort.cost import independent_sort_cost
from repro.sharedsort.plan import build_shared_sort_plan
from repro.sharedsort.threshold import threshold_top_k

NUM_PHRASES = 3
ADS_PER_PHRASE = 32


def phrase_map(overlap_fraction: float):
    shared_count = int(ADS_PER_PHRASE * overlap_fraction)
    shared_block = list(range(shared_count))
    phrases = {}
    next_id = shared_count
    for index in range(NUM_PHRASES):
        own = list(range(next_id, next_id + ADS_PER_PHRASE - shared_count))
        next_id += ADS_PER_PHRASE - shared_count
        phrases[f"p{index}"] = shared_block + own
    return phrases


@pytest.mark.experiment("SharedSort")
def test_shared_sort_cost_vs_overlap(benchmark):
    table = ExperimentTable(
        "Shared merge-sort: expected full-sort cost vs overlap "
        f"({NUM_PHRASES} phrases x {ADS_PER_PHRASE} advertisers, sr=0.9)",
        ["overlap", "independent", "shared plan", "saving"],
    )
    previous_saving = -1.0
    for overlap in (0.0, 0.25, 0.5, 0.75, 1.0):
        phrases = phrase_map(overlap)
        plan = build_shared_sort_plan(phrases, 0.9)
        shared_cost = plan.expected_cost()
        independent = independent_sort_cost(
            {p: len(ads) for p, ads in phrases.items()},
            {p: 0.9 for p in phrases},
        )
        saving = 1 - shared_cost / independent
        table.add(overlap, independent, shared_cost, f"{saving:.1%}")
        assert shared_cost <= independent + 1e-9
        if overlap >= 0.5:
            # Savings keep growing once overlap dominates.
            assert saving >= previous_saving - 1e-9
        previous_saving = saving
    table.show()

    phrases = phrase_map(0.5)
    benchmark(lambda: build_shared_sort_plan(phrases, 0.9))


@pytest.mark.experiment("SharedSort")
def test_threshold_algorithm_pull_counts(benchmark):
    """Live pulls with TA on top: early termination keeps operator work
    far below the full-sort worst case the cost model charges."""
    rng = random.Random(17)
    phrases = phrase_map(0.5)
    bids = {
        advertiser: round(rng.uniform(0.1, 9.9), 2)
        for ads in phrases.values()
        for advertiser in ads
    }
    factors = {
        phrase: {a: round(rng.uniform(0.3, 1.7), 3) for a in ads}
        for phrase, ads in phrases.items()
    }
    plan = build_shared_sort_plan(phrases, 1.0)

    def run_all():
        live = plan.instantiate(bids)
        for phrase, ads in phrases.items():
            ctr_order = sorted(
                ads, key=lambda a: (-factors[phrase][a], a)
            )
            result = threshold_top_k(
                5,
                live.stream_for_phrase(phrase),
                ctr_order,
                bids,
                factors[phrase],
            )
            expected = sorted(
                ads, key=lambda a: (-bids[a] * factors[phrase][a], a)
            )[:5]
            assert list(result.ranking.advertiser_ids()) == expected
        return live

    live = run_all()
    worst_case = plan.expected_cost()  # sr=1: the full-sort cost exactly
    table = ExperimentTable(
        "Threshold algorithm over the shared plan (k=5, overlap 0.5)",
        ["operator pulls (live)", "full-sort worst case", "fraction"],
    )
    table.add(
        live.total_pulls(),
        worst_case,
        f"{live.total_pulls() / worst_case:.1%}",
    )
    table.show()
    assert live.total_pulls() < worst_case

    benchmark(run_all)
