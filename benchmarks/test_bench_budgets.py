"""E19 -- Section IV at scale: the gaming attack's revenue loss.

The workload is :func:`repro.budgets.gaming.gaming_market_at_scale`:
thousands of near-exhausted attackers (budgets worth ~1.5-2 clicks)
crowding a few always-occurring phrases, plus a deep-budget honest field
they outrank.

Under a naive policy (ignore outstanding ads) the attackers keep winning
slots whose eventual clicks they cannot pay for; the forgiven fraction
of delivered click value is the provider's loss.  Section IV throttling
drives it to ~zero on the identical click fortunes -- the paper's
Table-style result, recorded per policy.  Both policies run the engine's
default exact scoring on ``layout="columnar"``.
"""

from __future__ import annotations

import pytest

from repro.budgets.gaming import forgiven_fraction, gaming_market_at_scale
from repro.engine import SharedAuctionEngine
from repro.metrics.tables import ExperimentTable

ATTACKERS = 2000
HONEST = 200
ROUNDS = 24
MARKET_SEED = 0
ENGINE_SEED = 7
CLICK_DELAY_ROUNDS = 3.0
SLOT_FACTORS = [1.0, 0.6, 0.3]
MIN_NAIVE_LOSS = 0.05  # the attack must visibly bite before mitigation
MAX_THROTTLED_LOSS = 0.01  # and throttling must all but remove it (0.0)

MARKET = gaming_market_at_scale(
    num_attackers=ATTACKERS, num_honest=HONEST, seed=MARKET_SEED
)


def make_engine(throttle: bool) -> SharedAuctionEngine:
    return SharedAuctionEngine(
        MARKET.advertisers,
        slot_factors=SLOT_FACTORS,
        search_rates=MARKET.search_rates,
        mode="unshared",
        layout="columnar",
        throttle=throttle,
        mean_click_delay_rounds=CLICK_DELAY_ROUNDS,
        seed=ENGINE_SEED,
    )


@pytest.mark.experiment("E19")
def test_gaming_at_scale_revenue_loss(benchmark):
    # Naive vs throttled on identical click fortunes.
    loss_table = ExperimentTable(
        f"Gaming at scale: {ATTACKERS} attackers, {HONEST} honest, "
        f"{ROUNDS} rounds",
        ["policy", "revenue ($)", "forgiven ($)", "revenue loss"],
    )
    losses = {}
    for label, throttle in (("naive", False), ("throttled", True)):
        report = make_engine(throttle).run(ROUNDS)
        loss = forgiven_fraction(
            report.revenue_cents, report.forgiven_cents
        )
        losses[label] = loss
        loss_table.add(
            label,
            report.revenue_cents / 100,
            report.forgiven_cents / 100,
            round(loss, 4),
        )
    loss_table.show()
    assert losses["naive"] >= MIN_NAIVE_LOSS, (
        "the attack never bit; the workload is not probing anything"
    )
    assert losses["throttled"] < losses["naive"] / 5.0, (
        "throttling should remove most of the naive revenue loss"
    )
    assert losses["throttled"] <= MAX_THROTTLED_LOSS, (
        f"throttled revenue loss {losses['throttled']:.4f} "
        f"above {MAX_THROTTLED_LOSS}"
    )

    # Timed kernel: one steady-state throttled round on the gaming
    # market, end to end.
    engine = make_engine(throttle=True)
    engine.run(ROUNDS)  # warm the books past the cold start
    benchmark(engine.run_round)
