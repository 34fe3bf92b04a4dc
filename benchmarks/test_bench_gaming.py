"""E5 -- the Section IV gaming attack on the engine: revenue and forgiven clicks.

One near-exhausted attacker against three deep-budget rivals, every
advertiser on five always-occurring phrases (so ``m = 5``), one slot,
GSP prices.  Sweeps the engine's mean click delay over seeds 0-9: the
attack needs outstanding ads, so forgiven value grows with the delay
under the naive policy (``throttle=False``), while throttling forgives
nothing at every delay and seed.
"""

from __future__ import annotations

import pytest

from repro.budgets.gaming import attacker_wins, gaming_market_at_scale
from repro.engine import SharedAuctionEngine
from repro.metrics.tables import ExperimentTable

ROUNDS = 120
SEEDS = range(10)
DELAYS = (0, 1, 3, 6)
SLOT_FACTORS = [1.0]


def market(seed: int):
    return gaming_market_at_scale(
        num_attackers=1,
        num_honest=3,
        num_phrases=5,
        phrases_per_advertiser=5,
        seed=seed,
    )


def run_attack(attack, rounds, delay, throttle, seed):
    return SharedAuctionEngine(
        attack.advertisers,
        slot_factors=SLOT_FACTORS,
        search_rates=attack.search_rates,
        mode="unshared",
        throttle=throttle,
        mean_click_delay_rounds=float(delay),
        seed=seed,
    ).run(rounds)


@pytest.mark.experiment("Gaming")
def test_gaming_attack_vs_delay(benchmark):
    table = ExperimentTable(
        f"Section IV gaming attack vs mean click delay ({ROUNDS} rounds x "
        f"5 auctions, seeds {SEEDS.start}-{SEEDS.stop - 1}; mean [min, max])",
        [
            "delay",
            "naive revenue ($)",
            "naive forgiven (¢)",
            "naive attacker wins",
            "throttled revenue ($)",
            "throttled forgiven (¢)",
            "throttled attacker wins",
        ],
    )

    def spread(values):
        return (
            f"{sum(values) / len(values):.1f} "
            f"[{min(values)}, {max(values)}]"
        )

    naive_forgiven_mean = {}
    for delay in DELAYS:
        runs = {False: [], True: []}
        for seed in SEEDS:
            attack = market(seed)
            for throttle in (False, True):
                report = run_attack(attack, ROUNDS, delay, throttle, seed)
                runs[throttle].append(
                    (
                        report.revenue_cents,
                        report.forgiven_cents,
                        attacker_wins(report, attack.attacker_ids),
                    )
                )
        naive, throttled = runs[False], runs[True]
        table.add(
            delay,
            sum(r[0] for r in naive) / len(naive) / 100,
            spread([r[1] for r in naive]),
            spread([r[2] for r in naive]),
            sum(r[0] for r in throttled) / len(throttled) / 100,
            spread([r[1] for r in throttled]),
            spread([r[2] for r in throttled]),
        )
        assert all(r[1] == 0 for r in throttled), (
            f"throttling forgave click value at delay {delay}"
        )
        assert sum(r[0] for r in throttled) >= sum(r[0] for r in naive), (
            f"throttling lost revenue summed over the seeds at delay {delay}"
        )
        naive_forgiven_mean[delay] = sum(r[1] for r in naive) / len(naive)
    table.show()
    for delay in (3, 6):
        assert naive_forgiven_mean[delay] >= 3 * naive_forgiven_mean[0], (
            "the attack should grow with the click delay"
        )

    attack = market(0)
    benchmark(lambda: run_attack(attack, 30, 3, True, 0))
