"""E14 -- concentration-bound ablation: Hoeffding vs Bernstein vs both.

The paper uses Hoeffding's inequality for the unexpanded remainder of
``S_l``.  Bernstein's inequality uses the variance ``Σ π² ctr(1-ctr)``
and is tighter when click probabilities are small -- precisely the
regime of outstanding ads with low CTRs.  We measure interval widths at depth
0 and the expansions a comparison workload needs under each method.
"""

from __future__ import annotations

import random

import pytest

from repro.budgets.comparison import BoundedBid, compare_throttled_bids
from repro.budgets.hoeffding import throttled_bid_bounds
from repro.budgets.throttle import ThrottleProblem
from repro.metrics.tables import ExperimentTable

METHODS = ("hoeffding", "bernstein", "combined")


def problems(ctr_level: float, seed: int, count: int = 40):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        ads = [
            (rng.randrange(5, 40), min(0.95, max(0.01, rng.gauss(ctr_level, 0.03))))
            for _ in range(8)
        ]
        out.append(
            ThrottleProblem(
                bid_cents=rng.randrange(20, 80),
                budget_cents=rng.randrange(60, 260),
                num_auctions=2,
                outstanding=ads,
            )
        )
    return out


@pytest.mark.experiment("BoundMethods")
def test_bound_width_by_method(benchmark):
    table = ExperimentTable(
        "Depth-0 interval width of b-hat by bound method (mean over 40 problems)",
        ["click level", *METHODS],
    )
    for ctr_level in (0.05, 0.2, 0.5):
        widths = {}
        for method in METHODS:
            total = 0.0
            for problem in problems(ctr_level, seed=17):
                total += throttled_bid_bounds(problem, 0, method=method).width
            widths[method] = total / 40
        table.add(ctr_level, widths["hoeffding"], widths["bernstein"], widths["combined"])
        # Combined is the intersection: never looser than either.
        assert widths["combined"] <= widths["hoeffding"] + 1e-9
        assert widths["combined"] <= widths["bernstein"] + 1e-9
    table.show()
    print(
        "\nShape: Bernstein tightens markedly at low click probabilities"
        "\n(low-variance debt), while Hoeffding can win near ctr = 0.5;"
        "\nintersecting both dominates either alone."
    )

    sample = problems(0.05, seed=17)[0]
    benchmark(lambda: throttled_bid_bounds(sample, 0, method="combined"))


@pytest.mark.experiment("BoundMethods")
def test_comparison_work_by_method(benchmark):
    """Tighter depth-0 bounds should not hurt comparison workloads; we
    count the refinements a close-comparison batch needs when the
    BoundedBid layer runs at each method's depth-0 start."""
    rng = random.Random(5)
    pairs = []
    for _ in range(30):
        budget = rng.randrange(60, 200)
        bid = rng.randrange(25, 60)
        make = lambda: [
            (rng.randrange(4, 35), rng.uniform(0.02, 0.25)) for _ in range(6)
        ]
        pairs.append(
            (
                ThrottleProblem(bid, budget, 2, make()),
                ThrottleProblem(bid, budget, 2, make()),
            )
        )

    def run_batch():
        total = 0
        for a_problem, b_problem in pairs:
            a = BoundedBid(1, a_problem)
            b = BoundedBid(2, b_problem)
            compare_throttled_bids(a, b)
            total += a.refinements + b.refinements
        return total

    total = benchmark(run_batch)
    table = ExperimentTable(
        "Refinements needed for 30 close comparisons (rare-click regime)",
        ["total refinements", "full-expansion work"],
    )
    table.add(total, 30 * 2 * 6)
    table.show()
    assert total < 30 * 2 * 6
