"""A phrase is one auction a round: a repeat is rejected, not booked twice.

``run_round(["q", "q"])`` used to double every bidder's auction
multiplicity ``m``, book both copies' displays as outstanding debt and
report one copy's allocation (the second overwrote the first).  It is
now rejected before the round takes an index, like a phrase nobody bids
on, so the rounds after it are those of an engine that never saw it.
"""

from __future__ import annotations

import pytest

from repro.engine.pipeline import SharedAuctionEngine
from repro.errors import InvalidAuctionError
from repro.reference import ReferenceEngine
from repro.workloads.fig4 import fig4_market

MODES = ("shared", "shared-sort", "unshared")
SLOTS = [0.3, 0.2, 0.1]


def _market():
    # Budgeted, so a double booking would show in the outstanding ledgers.
    return fig4_market(num_queries=6, num_advertisers=16, seed=3)


def _summary(report):
    return (
        report.round_index,
        report.allocations,
        report.displays,
        report.clicks,
        report.revenue_cents,
    )


@pytest.mark.parametrize(
    "build", (ReferenceEngine, SharedAuctionEngine), ids=("reference", "engine")
)
@pytest.mark.parametrize("mode", MODES)
def test_a_repeated_phrase_is_rejected_before_the_round(mode, build):
    advertisers, rates = _market()

    def engine():
        return build(advertisers, SLOTS, rates, mode=mode, seed=7)

    phrases = sorted(rates)
    rejected = engine()
    for occurring in (
        [phrases[0], phrases[0]],
        [phrases[1], phrases[0], phrases[1]],
    ):
        with pytest.raises(InvalidAuctionError, match="repeats"):
            rejected.run_round(occurring)
    assert rejected.budget_manager.outstanding_counts() == {}
    assert rejected.click_model.pending_count == 0
    rounds = [phrases, [phrases[0]], phrases[1:], phrases] * 3
    fresh = engine()
    replayed = [_summary(rejected.run_round(r)) for r in rounds]
    assert replayed == [_summary(fresh.run_round(r)) for r in rounds]
    assert replayed[0][0] == 0
    assert sum(clicks for _, _, _, clicks, _ in replayed) > 0
