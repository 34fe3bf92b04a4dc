"""Shared sorting (Section III) with the threshold algorithm on top.

Three phrases with per-phrase CTR factors share the descending-bid
streams of their common advertisers through on-demand merge operators;
the threshold algorithm pulls only as deep as the stopping condition
requires.

Run:  python examples/shared_sort_demo.py
"""

from __future__ import annotations

import random

from repro.metrics.tables import ExperimentTable
from repro.sharedsort.cost import independent_sort_cost
from repro.sharedsort.plan import build_shared_sort_plan
from repro.sharedsort.threshold import threshold_top_k


def main() -> None:
    rng = random.Random(21)
    shared_block = list(range(16))  # book-lovers every phrase wants
    phrases = {
        "books": shared_block + [16, 17, 18, 19],
        "dvds": shared_block + [20, 21],
        "music": shared_block + [22, 23, 24, 25, 26, 27],
    }
    bids = {i: round(rng.uniform(0.1, 9.9), 2) for i in range(28)}
    # Per-phrase advertiser CTR factors (Section III's c_i^q).
    factors = {
        phrase: {i: round(rng.uniform(0.3, 1.7), 3) for i in ads}
        for phrase, ads in phrases.items()
    }

    plan = build_shared_sort_plan(phrases, search_rates=0.9)
    print(
        f"plan: {len(plan.internal_nodes())} shared merge operators; "
        f"expected full-sort cost {plan.expected_cost():.1f} vs "
        f"independent {independent_sort_cost({p: len(a) for p, a in phrases.items()}, {p: 0.9 for p in phrases}):.1f}"
    )

    live = plan.instantiate(bids)
    table = ExperimentTable(
        "Threshold algorithm over shared sorted streams (k = 3)",
        ["phrase", "top-3 (id:score)", "stages", "sorted acc.", "random acc."],
    )
    for phrase, ads in phrases.items():
        ctr_order = sorted(ads, key=lambda i: (-factors[phrase][i], i))
        result = threshold_top_k(
            3, live.stream_for_phrase(phrase), ctr_order, bids, factors[phrase]
        )
        expected = sorted(
            ads, key=lambda i: (-bids[i] * factors[phrase][i], i)
        )[:3]
        assert list(result.ranking.advertiser_ids()) == expected
        pretty = ", ".join(
            f"{e.advertiser_id}:{e.score:.2f}" for e in result.ranking
        )
        table.add(
            phrase,
            pretty,
            result.stages,
            result.sorted_accesses,
            result.random_accesses,
        )
    table.show()
    print(
        f"\noperator pulls across all three phrases: {live.total_pulls()} "
        f"(shared caches mean the 16 common advertisers were merge-sorted once)"
    )


if __name__ == "__main__":
    main()
