"""Non-separable winner determination (Section V).

When click-through rates do not factor as c_i * d_j, winner
determination becomes a maximum-weight bipartite matching.  Following
Martin-Gehrke-Halpern (2008), each slot keeps only its top-k incident
advertisers before the Hungarian algorithm runs on the pruned O(k^2) x k
graph -- this example verifies the pruned answer against the full graph
and against brute force.

Run:  python examples/nonseparable_auction.py
"""

from __future__ import annotations

import random

from repro.core.advertiser import Advertiser
from repro.core.auction import AuctionSpec
from repro.core.ctr import MatrixCTRModel
from repro.core.winner_determination import (
    brute_force_winner_determination,
    determine_winners_nonseparable,
    prune_candidates,
)
from repro.metrics.tables import ExperimentTable


def main() -> None:
    rng = random.Random(5)
    num_advertisers, num_slots = 40, 3

    # A non-separable CTR matrix: specialists whose relative slot
    # performance differs (e.g. brand ads thrive on top, bargain ads in
    # lower slots).
    rows = {}
    for i in range(num_advertisers):
        base = rng.uniform(0.05, 0.3)
        tilt = rng.uniform(0.5, 2.0)
        rows[i] = [
            min(1.0, base * (tilt ** (-slot if i % 2 else slot)))
            for slot in range(num_slots)
        ]
    model = MatrixCTRModel(rows)
    advertisers = [
        Advertiser(i, bid=round(rng.uniform(0.2, 3.0), 2))
        for i in range(num_advertisers)
    ]
    spec = AuctionSpec("gadgets", advertisers, model)

    kept = prune_candidates(advertisers, model, num_slots)
    pruned = determine_winners_nonseparable(spec, prune=True)
    full = determine_winners_nonseparable(spec, prune=False)

    table = ExperimentTable(
        "Non-separable winner determination (Section V)",
        ["method", "graph size", "objective"],
    )
    table.add("pruned Hungarian", f"{len(kept)} x {num_slots}", pruned.expected_value)
    table.add(
        "full Hungarian", f"{num_advertisers} x {num_slots}", full.expected_value
    )
    table.show()
    assert abs(pruned.expected_value - full.expected_value) < 1e-9

    print("\nslot assignment:", pruned.slot_to_advertiser)

    # Cross-check against exhaustive search on a small sub-instance.
    small_spec = AuctionSpec("gadgets", advertisers[:6], model)
    fast = determine_winners_nonseparable(small_spec)
    slow = brute_force_winner_determination(small_spec)
    assert abs(fast.expected_value - slow.expected_value) < 1e-9
    print(
        f"6-advertiser cross-check: Hungarian {fast.expected_value:.4f} "
        f"== brute force {slow.expected_value:.4f}"
    )


if __name__ == "__main__":
    main()
