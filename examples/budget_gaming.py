"""The Section IV gaming attack, head to head with throttling.

A nearly exhausted advertiser bids on five always-occurring phrases
against three deep-budget rivals, one slot each; its clicks arrive with
delay, so a naive engine keeps letting it win and later forgives the
clicks it cannot pay for.  Throttled winner determination (ranking by
b-hat) closes the exploit.  Both policies run on the engine, with the
same market and the same click seed.

Run:  python examples/budget_gaming.py
"""

from __future__ import annotations

from repro.budgets.gaming import attacker_wins, gaming_market_at_scale
from repro.engine import SharedAuctionEngine
from repro.metrics.tables import ExperimentTable


def main() -> None:
    market = gaming_market_at_scale(
        num_attackers=1,
        num_honest=3,
        num_phrases=5,
        phrases_per_advertiser=5,
        seed=0,
    )
    table = ExperimentTable(
        "Gaming attack: naive vs throttled winner determination",
        ["policy", "revenue ($)", "forgiven ($)", "attacker wins"],
    )
    for policy, throttle in (("naive", False), ("throttled", True)):
        report = SharedAuctionEngine(
            market.advertisers,
            slot_factors=[1.0],
            search_rates=market.search_rates,
            mode="unshared",
            throttle=throttle,
            mean_click_delay_rounds=3.0,
            seed=0,
        ).run(200)
        table.add(
            policy,
            report.revenue_cents / 100,
            report.forgiven_cents / 100,
            attacker_wins(report, market.attacker_ids),
        )
    table.show()
    print(
        "\nEvery round holds five auctions, so the attacker's throttled"
        "\nbid is at most its remaining budget / 5: it can still win while"
        "\nits budget covers the clicks it may owe, but never more than"
        "\nthat, so no click is forgiven and the slots (hence revenue) go"
        "\nto advertisers who can pay."
    )


if __name__ == "__main__":
    main()
