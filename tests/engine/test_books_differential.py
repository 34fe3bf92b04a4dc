"""The engine's display blocks against the reference's list ledgers,
round by round, on a budgeted market with CTR-0 displays.

The engine books through :class:`repro.engine.budget_manager.BudgetManager`
(one block per round), the reference through its own
:class:`repro.reference.WalkingBooks` (a list ledger per advertiser,
pruned every round).  A quarter of the advertisers have ``ctr_factor=0``
(some with per-phrase factors, which only ``"shared-sort"`` honours) and
the last slot factor is 0, so ads are displayed dead -- expired by the
next round's expiry on both books.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.advertiser import Advertiser
from repro.engine.pipeline import SharedAuctionEngine
from repro.reference import ReferenceEngine
from repro.workloads.generator import MarketConfig, generate_market

SLOT_FACTORS = [0.3, 0.2, 0.0]
# Defined differently on the two sides: the work counters, and the
# engine's quick test clearing some debt carriers the reference scores;
# the reference leaves stage 2's sizes and the stage profile at 0.
OWN_FIELDS = {
    "merges", "scans", "debt_carriers_scored", "counters", "rows_scored",
    "book_rows_synced", "problems_rebuilt", "rebuilt_cells", "exact_bids",
    "stage_ns",
}


def _market(seed: int):
    market = generate_market(
        MarketConfig(
            num_categories=3,
            phrases_per_category=3,
            specialists_per_category=6,
            generalists=4,
            generalist_categories=2,
            median_budget_cents=600,
            seed=seed,
        )
    )
    advertisers = []
    for at, advertiser in enumerate(market.advertisers):
        if at % 4 == 0:
            phrase = min(advertiser.phrases)
            advertiser = dataclasses.replace(
                advertiser,
                ctr_factor=0.0,
                phrase_ctr_factors={phrase: 0.8} if at % 8 == 0 else {},
            )
        advertisers.append(advertiser)
    return advertisers, market.search_rates


@pytest.mark.parametrize("click_horizon_rounds", (1, 3))
@pytest.mark.parametrize("mode", ("shared", "unshared", "shared-sort"))
@pytest.mark.parametrize("seed", (0, 1, 2))
def test_round_reports_agree_field_by_field(mode, click_horizon_rounds, seed):
    advertisers, rates = _market(seed)
    engines = [
        build(
            advertisers, SLOT_FACTORS, rates, mode=mode, seed=seed,
            click_horizon_rounds=click_horizon_rounds,
        )
        for build in (SharedAuctionEngine, ReferenceEngine)
    ]
    expired = dead = throttled = 0
    for _ in range(30):
        engine, reference = (e.run_round() for e in engines)
        mine, theirs = dataclasses.asdict(engine), dataclasses.asdict(reference)
        for name in OWN_FIELDS:
            del mine[name], theirs[name]
        assert mine == theirs
        assert engine.debt_carriers_scored <= reference.debt_carriers_scored
        assert (
            engines[0].budget_manager.outstanding_counts()
            == engines[1].budget_manager.outstanding_counts()
        )
        expired += engine.expired_ads
        throttled += reference.debt_carriers_scored
        dead += sum(
            slot == len(SLOT_FACTORS) - 1
            for ads in engine.allocations.values()
            for slot, _, _ in ads
        )
    assert expired and dead, "no ad expired, or none was shown dead"
    assert throttled, "no budget ever bound"
    assert (
        engines[0].settle_remaining_clicks()
        == engines[1].settle_remaining_clicks()
    )
    assert (
        engines[0].budget_manager.spent_snapshot()
        == engines[1].budget_manager.spent_snapshot()
    )
