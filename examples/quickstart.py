"""Quickstart: the paper's worked example, then a full engine run.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro.core.advertiser import Advertiser
from repro.core.pricing import GeneralizedSecondPrice, LadderedVCG
from repro.core.winner_determination import determine_winners
from repro.engine import SharedAuctionEngine
from repro.workloads.scenarios import paper_example_auction


def single_auction_example() -> None:
    """Figures 1-3: three advertisers, two slots, separable CTRs."""
    spec = paper_example_auction()
    print("== Single auction (Figures 1-3) ==")
    print("advertiser scores b_i * c_i:")
    for advertiser in spec.advertisers:
        name = "ABC"[advertiser.advertiser_id]
        score = advertiser.bid * spec.ctr_model.advertiser_factor(
            advertiser.advertiser_id
        )
        print(f"  {name}: bid={advertiser.bid:.2f}  score={score:.3f}")

    allocation = determine_winners(spec)
    for slot, advertiser_id in enumerate(allocation.slot_to_advertiser):
        print(f"  slot {slot + 1} -> advertiser {'ABC'[advertiser_id]}")

    for name, rule in [("GSP", GeneralizedSecondPrice()), ("VCG", LadderedVCG())]:
        outcome = rule.run(spec)
        prices = {
            "ABC"[advertiser_id]: round(price, 4)
            for advertiser_id, price in outcome.prices.items()
        }
        print(f"  {name} prices per click: {prices}")


def engine_example() -> None:
    """A shared-WD engine over three phrases with budgets and clicks."""
    print("\n== Round-based engine ==")
    phrases = ["hiking boots", "high-heels", "sandals"]
    advertisers = [
        Advertiser(0, bid=1.50, ctr_factor=1.2, phrases=frozenset(phrases)),
        Advertiser(
            1, bid=1.20, ctr_factor=1.0, phrases=frozenset({"hiking boots"})
        ),
        Advertiser(
            2,
            bid=1.80,
            ctr_factor=0.9,
            daily_budget=25.0,
            phrases=frozenset({"high-heels", "sandals"}),
        ),
        Advertiser(
            3, bid=0.90, ctr_factor=1.4, phrases=frozenset(phrases[:2])
        ),
    ]
    engine = SharedAuctionEngine(
        advertisers,
        slot_factors=[0.3, 0.2],
        search_rates={p: 0.8 for p in phrases},
        mode="shared",
        throttle=True,
        seed=7,
    )
    report = engine.run(rounds=100)
    print(f"  rounds: {report.rounds},  auctions resolved: {report.auctions}")
    print(f"  top-k merges: {report.merges},  advertisers scanned: {report.scans}")
    print(f"  ads displayed: {report.displays},  clicks: {report.clicks}")
    print(
        f"  revenue: ${report.revenue_cents / 100:.2f},  "
        f"forgiven: ${report.forgiven_cents / 100:.2f}"
    )
    spent = engine.budget_manager.spent_cents(2) / 100
    print(f"  budgeted advertiser 2 spent ${spent:.2f} of $25.00")


if __name__ == "__main__":
    single_auction_example()
    engine_example()
