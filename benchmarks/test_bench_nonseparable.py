"""E9 -- non-separable winner determination (Section V).

Pruning each slot to its top-k advertisers keeps the matching exact
while shrinking the Hungarian instance from n x k to at most k^2 x k.
We verify exactness across sizes and time pruned vs full matching.
"""

from __future__ import annotations

import random

import pytest

from repro.core.advertiser import Advertiser
from repro.core.auction import AuctionSpec
from repro.core.ctr import MatrixCTRModel
from repro.core.winner_determination import (
    determine_winners_nonseparable,
    prune_candidates,
)
from repro.metrics.tables import ExperimentTable

K = 3


def random_spec(num_advertisers: int, seed: int) -> AuctionSpec:
    rng = random.Random(seed)
    rows = {}
    for i in range(num_advertisers):
        base = rng.uniform(0.02, 0.3)
        tilt = rng.uniform(0.5, 2.0)
        rows[i] = [
            min(1.0, base * (tilt ** (-slot if i % 2 else slot)))
            for slot in range(K)
        ]
    advertisers = [
        Advertiser(i, bid=round(rng.uniform(0.2, 3.0), 2))
        for i in range(num_advertisers)
    ]
    return AuctionSpec("p", advertisers, MatrixCTRModel(rows))


@pytest.mark.experiment("NonSeparable")
def test_pruned_matching_exact_and_smaller(benchmark):
    table = ExperimentTable(
        f"Non-separable WD: pruned vs full Hungarian (k={K})",
        ["n", "pruned graph rows", "objective match"],
    )
    for n in (20, 50, 100, 200):
        spec = random_spec(n, seed=n)
        kept = prune_candidates(list(spec.advertisers), spec.ctr_model, K)
        pruned = determine_winners_nonseparable(spec, prune=True)
        full = determine_winners_nonseparable(spec, prune=False)
        match = abs(pruned.expected_value - full.expected_value) < 1e-9
        table.add(n, len(kept), match)
        assert match
        assert len(kept) <= K * K
    table.show()

    spec = random_spec(200, seed=200)
    benchmark(lambda: determine_winners_nonseparable(spec, prune=True))


@pytest.mark.experiment("NonSeparable")
def test_full_matching_baseline(benchmark):
    """Timing baseline: the unpruned Hungarian on the same instance, to
    show what the pruning buys."""
    spec = random_spec(200, seed=200)
    benchmark(lambda: determine_winners_nonseparable(spec, prune=False))
