"""Bidding-program dynamics over shared winner determination.

Section II-C motivates per-round plan re-evaluation with advertisers who
"are constantly updating their bids using ... automated bidding
programs" -- staying in a slot, staying above a competitor, pacing a
budget.  This example runs those strategies against each other on one
phrase of a :class:`repro.engine.SharedAuctionEngine`: the shared plan
is built once, every round the strategies post fresh bids through
``set_bids``, and spend is what the engine settled for clicks under
generalized second pricing.

Run:  python examples/bidding_war.py
"""

from __future__ import annotations

from repro.bidding import (
    BiddingWar,
    BudgetPacing,
    OutbidCompetitor,
    StaticBid,
    TargetSlot,
)
from repro.metrics.tables import ExperimentTable

ROUNDS = 120


def main() -> None:
    strategies = {
        0: TargetSlot(slot=0, step=0.06),        # wants the top slot
        1: OutbidCompetitor(competitor_id=0),    # wants to beat advertiser 0
        2: BudgetPacing(daily_budget=12.0, valuation=3.0),
        3: StaticBid(1.4),                       # a set-and-forget advertiser
    }
    war = BiddingWar(
        strategies=strategies,
        initial_bids={0: 1.0, 1: 1.0, 2: 1.0, 3: 1.4},
        ctr_factors={0: 1.0, 1: 1.1, 2: 0.9, 3: 1.0},
        slot_factors=[0.3, 0.2],
        rounds=ROUNDS,
    )
    traces = war.run()

    table = ExperimentTable(
        f"Bidding war after {ROUNDS} rounds (two slots)",
        [
            "advertiser",
            "strategy",
            "final bid",
            "final slot",
            "rounds won",
            "total spend",
        ],
    )
    names = {
        0: "TargetSlot(0)",
        1: "OutbidCompetitor(0)",
        2: "BudgetPacing($12)",
        3: "StaticBid(1.40)",
    }
    for advertiser_id, trace in sorted(traces.items()):
        rounds_won = sum(1 for slot in trace.slots if slot is not None)
        final_slot = trace.slots[-1]
        table.add(
            advertiser_id,
            names[advertiser_id],
            trace.bids[-1],
            "-" if final_slot is None else final_slot,
            rounds_won,
            trace.spend[-1],
        )
    table.show()

    escalation = max(traces[0].bids[-1], traces[1].bids[-1])
    print(
        f"\nThe slot-0 contest escalated bids to {escalation:.2f} (from 1.00):"
        "\nexactly the rapid bid churn that forces winner determination to"
        "\nre-aggregate fresh values every round over a fixed shared plan."
    )
    assert traces[2].spend[-1] <= 12.0 + 1e-9, "pacer stayed within budget"


if __name__ == "__main__":
    main()
