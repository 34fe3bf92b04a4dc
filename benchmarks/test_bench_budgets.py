"""E19 -- Section IV at scale: the gaming attack's revenue loss; E43 -- the debt sweep.

The workload is :func:`repro.budgets.gaming.gaming_market_at_scale`:
thousands of near-exhausted attackers (budgets worth ~1.5-2 clicks)
crowding a few always-occurring phrases, plus a deep-budget honest field
they outrank.

Under a naive policy (ignore outstanding ads) the attackers keep winning
slots whose eventual clicks they cannot pay for; the forgiven fraction
of delivered click value is the provider's loss.  Section IV throttling
drives it to ~zero on the identical click fortunes -- the paper's
Table-style result, recorded per policy.  Both policies run the engine's
default exact scoring.

E43 lowers the median budget of the serving market's shape (the scaled
Fig. 4 market: 8 components x 250 advertisers x 60 phrases) and reads,
from round reports only, how much of a throttled round is Section IV
debt: the share of scored rows that needed an exact ``b̂``, the score
stage's share of the round, and the throttle problems rebuilt.
"""

from __future__ import annotations

import pytest

from repro.budgets.gaming import forgiven_fraction, gaming_market_at_scale
from repro.engine import SharedAuctionEngine
from repro.metrics.tables import ExperimentTable
from repro.workloads.fig4 import fig4_market

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


DEBT_BUDGETS_CENTS = (100_000, 25_000, 6000, 1500, 600, 150, 80)
DEBT_WARM_ROUNDS = 17
DEBT_TIMED_ROUNDS = 12


@pytest.mark.experiment("E43")
def test_debt_sweep():
    table = ExperimentTable(
        f"Debt sweep: serving market, throttled round scan, "
        f"{DEBT_TIMED_ROUNDS} rounds after {DEBT_WARM_ROUNDS}",
        [
            "median budget (¢)",
            "exact-b̂ share",
            "score share",
            "ms/round",
            "rebuilt/round",
            "rebuilt cells/round",
            "revenue ($)",
            "forgiven ($)",
        ],
    )
    shares = []
    for budget_cents in DEBT_BUDGETS_CENTS:
        advertisers, rates = fig4_market(
            num_queries=60,
            num_advertisers=250,
            num_components=8,
            median_budget_cents=budget_cents,
            seed=0,
        )
        engine = SharedAuctionEngine(
            advertisers, [0.3, 0.2, 0.1], rates, mode="unshared", throttle=True
        )
        engine.run(DEBT_WARM_ROUNDS)
        report = engine.run(DEBT_TIMED_ROUNDS)
        rounds = report.history
        stage_ns = [sum(stages) for stages in zip(*(r.stage_ns for r in rounds))]
        share = sum(r.debt_carriers_scored for r in rounds) / sum(
            r.rows_scored for r in rounds
        )
        shares.append(share)
        table.add(
            budget_cents,
            round(share, 3),
            round(stage_ns[1] / sum(stage_ns), 3),
            sum(stage_ns) / len(rounds) / 1e6,
            sum(r.problems_rebuilt for r in rounds) / len(rounds),
            sum(r.rebuilt_cells for r in rounds) / len(rounds),
            report.revenue_cents / 100,
            report.forgiven_cents / 100,
        )
    table.show()
    # The shape only: debt carriers go from a few of the scored rows to
    # over a third as budgets shrink (0.01 -> 0.37 at seed 0).  Times
    # and revenue are recorded, not gated.
    assert shares[0] < 0.1 and shares[-1] > 0.3
