"""Tight-budget differential battery for Section IV scoring.

Budgets small enough that throttling moves rankings, and clicks that
arrive two rounds late, keep most bidders in debt: the engine's
standing score columns and kept throttle problems (DESIGN.md sections
21-22) then answer for nearly every exact ``b̂``.  Over 50 seeded
markets, the engine in every mode must produce bit-identical winners,
prices, clicks, and budget trajectories to
:class:`repro.reference.ReferenceEngine`'s unshared scan with its
per-round exact throttle -- the oracle -- on both the batch path
(``run_round``) and the serving path (``serve_query``).  Decaying debt,
which no kept problem may answer for, faces the same oracle; the
engine's ``throttle.exact_fallbacks`` must count the reference's exact
``b̂`` whose DP really ran.
"""

from __future__ import annotations

import pytest

from repro.budgets.outstanding import ExponentialDecay, GeometricDecay
from repro.engine import SharedAuctionEngine
from repro.engine.budget_manager import BudgetManager
from repro.instrument import MetricsCollector, names
from repro import reference as reference_module
from repro.reference import ReferenceEngine
from repro.serving import ServingEngine, TrafficGenerator
from repro.workloads.generator import MarketConfig, generate_market

SEEDS = range(50)
BATCH_ROUNDS = 6
SERVING_QUERIES = 20
SLOT_FACTORS = [0.3, 0.2]
CLICK_DELAY_ROUNDS = 2.0  # in-flight clicks keep the ledgers non-empty

MODES = ["unshared", "shared", "shared-sort"]
COLUMNAR_VARIANTS = [
    (f"columnar {mode}", {"reference": False, "mode": mode})
    for mode in MODES
]


def tight_market(seed: int):
    """Budgets small enough that throttling genuinely moves rankings."""
    return generate_market(
        MarketConfig(
            num_categories=2,
            phrases_per_category=3,
            specialists_per_category=5,
            generalists=3,
            median_budget_cents=1_200,
            seed=seed,
        )
    )


def make_engine(market, seed: int, reference: bool = True, **kwargs):
    """The reference, unless a test asks for the engine."""
    return (ReferenceEngine if reference else SharedAuctionEngine)(
        market.advertisers,
        slot_factors=SLOT_FACTORS,
        search_rates=market.search_rates,
        mode=kwargs.pop("mode", "unshared"),
        throttle=kwargs.pop("throttle", True),
        mean_click_delay_rounds=CLICK_DELAY_ROUNDS,
        seed=seed,
        **kwargs,
    )


def batch_outcome(market, seed: int, **kwargs):
    """Run the batch path; identical seeds sample identical phrases, so
    outcome tuples are comparable across configurations as long as the
    auctions themselves agree -- which is exactly the assertion."""
    engine = make_engine(market, seed, **kwargs)
    report = engine.run(BATCH_ROUNDS)
    return (
        [r.allocations for r in report.history],
        report.revenue_cents,
        report.forgiven_cents,
        engine.budget_manager.spent_snapshot(),
    )


def serving_outcome(market, arrivals, seed: int, **kwargs):
    engine = make_engine(market, seed, **kwargs)
    traffic = TrafficGenerator.from_search_rates(
        market.search_rates, rate_qps=100.0, seed=seed
    )
    loop = ServingEngine(engine, traffic)
    outcomes = []
    trajectory = []
    for arrival in arrivals:
        report = loop.serve_one(arrival)
        outcomes.append(
            (
                arrival.phrase,
                report.allocation,
                report.revenue_cents,
                report.forgiven_cents,
                report.clicks,
            )
        )
        trajectory.append(engine.budget_manager.spent_snapshot())
    engine.settle_remaining_clicks()
    return outcomes, trajectory, engine.budget_manager.spent_snapshot()


class TestBatchThrottleDifferential:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_columnar_modes_match_object_oracle(self, seed):
        market = tight_market(seed)
        baseline = batch_outcome(market, seed)
        # The comparison must not be vacuous: money moved.
        assert baseline[3], f"seed {seed} produced no spend at all"
        for label, config in COLUMNAR_VARIANTS:
            assert batch_outcome(market, seed, **config) == baseline, (
                f"{label} diverged from the reference (seed {seed})"
            )


class TestServingThrottleDifferential:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_columnar_modes_match_object_oracle_per_query(self, seed):
        market = tight_market(seed)
        traffic = TrafficGenerator.from_search_rates(
            market.search_rates, rate_qps=100.0, zipf_exponent=1.2, seed=seed
        )
        arrivals = traffic.take(SERVING_QUERIES)
        baseline = serving_outcome(market, arrivals, seed)
        for label, config in COLUMNAR_VARIANTS:
            assert serving_outcome(market, arrivals, seed, **config) == (
                baseline
            ), f"{label} diverged from the reference (seed {seed})"


class TestColumnarAcrossModes:
    """Each mode wires CTR factors into ranking its own way (shared-sort
    scales by ``ctr_factor_for``), so the engine must also agree with
    the reference *of the same mode* under heavy debt."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("mode", MODES)
    def test_columnar_matches_object(self, mode, seed):
        market = tight_market(seed)
        exact = batch_outcome(market, seed, mode=mode)
        columnar = batch_outcome(market, seed, mode=mode, reference=False)
        assert columnar == exact


DECAYS = {
    "geometric": GeometricDecay(ratio=0.7, horizon=8),
    "exponential": ExponentialDecay(rate=0.3, horizon=8),
}


class TestDecayingDebtDifferential:
    """Under a decaying model every carrier's debt re-weighs each round,
    so no kept problem may answer for a later round: the engine must
    still match the reference while it rebuilds."""

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("decay", sorted(DECAYS))
    def test_columnar_modes_match_object_oracle(self, decay, seed):
        market = tight_market(seed)
        model = DECAYS[decay]
        oracle = make_engine(market, seed, decay=model)
        report = oracle.run(BATCH_ROUNDS)
        # Not vacuous: debt was on the books when bids were scored.
        assert report.debt_carriers_scored > 0
        baseline = batch_outcome(market, seed, decay=model)
        for label, config in COLUMNAR_VARIANTS:
            assert batch_outcome(market, seed, decay=model, **config) == (
                baseline
            ), f"{label} diverged from the reference ({decay}, seed {seed})"

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("decay", sorted(DECAYS))
    def test_columnar_modes_match_object_oracle_per_query(self, decay, seed):
        market = tight_market(seed)
        model = DECAYS[decay]
        traffic = TrafficGenerator.from_search_rates(
            market.search_rates, rate_qps=100.0, zipf_exponent=1.2, seed=seed
        )
        arrivals = traffic.take(SERVING_QUERIES)
        baseline = serving_outcome(market, arrivals, seed, decay=model)
        for label, config in COLUMNAR_VARIANTS:
            assert serving_outcome(
                market, arrivals, seed, decay=model, **config
            ) == baseline, (
                f"{label} diverged from the reference ({decay}, seed {seed})"
            )


def exact_fallbacks(market, seed: int, reference: bool = False, **kwargs):
    """Exact ``b̂`` whose DP ran, and the report of a batch run.

    The engine's are its ``throttle.exact_fallbacks``.  The reference
    counts nothing, so its are counted at its calls of
    :func:`repro.budgets.throttle.exact_throttled_bid`, by the
    predicate the engine counts with: a problem with a bid that is not
    trivially unthrottled.
    """
    if not reference:
        collector = MetricsCollector()
        engine = make_engine(
            market, seed, reference=False, collector=collector, **kwargs
        )
        report = engine.run(BATCH_ROUNDS)
        return collector.counter(names.THROTTLE_EXACT_FALLBACKS), report
    ran = []
    solve = reference_module.exact_throttled_bid

    def counting(problem):
        ran.append(problem.bid_cents > 0 and not problem.trivially_unthrottled())
        return solve(problem)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reference_module, "exact_throttled_bid", counting)
        report = make_engine(market, seed, **kwargs).run(BATCH_ROUNDS)
    return sum(ran), report


class TestExactFallbackAccounting:
    """The engine's stage 2 counts ``throttle.exact_fallbacks`` by one
    predicate: a problem counts only when its DP really runs."""

    @pytest.mark.parametrize("mode", MODES)
    def test_engine_counts_the_references_fallbacks(self, mode):
        market = tight_market(3)
        reference, _ = exact_fallbacks(market, 3, reference=True, mode=mode)
        assert reference > 0
        assert exact_fallbacks(market, 3, mode=mode)[0] == reference

    @pytest.mark.parametrize(
        "reference", (True, False), ids=("reference", "engine")
    )
    def test_deep_budgets_never_run_the_dp(self, reference):
        market = generate_market(
            MarketConfig(
                num_categories=2,
                phrases_per_category=3,
                specialists_per_category=5,
                generalists=3,
                median_budget_cents=10_000_000,
                seed=3,
            )
        )
        counted, report = exact_fallbacks(market, 3, reference=reference)
        # Debt was outstanding, but every quick test cleared it.
        assert report.displays > report.clicks
        assert counted == 0

    @pytest.mark.parametrize(
        "reference", (True, False), ids=("reference", "engine")
    )
    def test_unthrottled_engine_counts_none(self, reference):
        market = tight_market(3)
        counted, report = exact_fallbacks(
            market, 3, reference=reference, throttle=False
        )
        assert report.displays > 0
        assert counted == 0
        assert report.debt_carriers_scored == 0


class TestDecayVariesIsReadFromTheManager:
    """Stage 2 asks ``BudgetManager.decay_varies``; the engine keeps no
    copy of its own."""

    @pytest.fixture
    def decay_varies(self, monkeypatch):
        monkeypatch.setattr(
            BudgetManager, "decay_varies", property(lambda self: True)
        )

    def _columnar_engine(self):
        market = tight_market(3)
        engine = make_engine(market, 3, reference=False)
        return engine, engine.run(BATCH_ROUNDS)

    def test_no_decay_keeps_problems(self):
        engine, _ = self._columnar_engine()
        assert engine._standing_problems

    def test_stage_two_keeps_nothing_when_the_manager_says_decay_varies(
        self, decay_varies
    ):
        engine, report = self._columnar_engine()
        assert report.debt_carriers_scored > 0
        assert not engine._standing_problems
