"""Differential testing: shared vs unshared winner determination.

The paper's central claim is that sharing changes the *work*, never the
*auction*: a shared plan (Section II) or shared sort + threshold
algorithm (Section III) must produce exactly the winners, prices, and
budget trajectories of independent per-phrase scans.  These tests run
each of the engine's mechanisms in lockstep with
:class:`repro.reference.ReferenceEngine` (one scan per phrase) on
randomized markets over many seeds, driving each round with the same
occurring phrases, and assert the outcomes are identical round by round
-- and, via the instrumentation counters, that sharing never scans more
advertiser entries than the reference's scans.
"""

from __future__ import annotations

import pytest

from repro.engine.pipeline import SharedAuctionEngine
from repro.instrument import MetricsCollector, names
from repro.reference import ReferenceEngine
from repro.workloads.generator import MarketConfig, generate_market

from .round_scans import assert_scanned_with_phrase_ctrs, watch_round_scans

DIFFERENTIAL_SEEDS = range(50)


def _small_market(seed: int):
    return generate_market(
        MarketConfig(
            num_categories=3,
            phrases_per_category=3,
            specialists_per_category=5,
            generalists=3,
            generalist_categories=2,
            median_budget_cents=2_000,
            seed=seed,
        )
    )


def _build(market, mode, seed, collector=None, exec_cache=False):
    return SharedAuctionEngine(
        market.advertisers,
        slot_factors=[0.3, 0.2, 0.1],
        search_rates=market.search_rates,
        mode=mode,
        seed=seed,
        collector=collector,
        exec_cache=exec_cache,
    )


def _run_lockstep(market, seed, reference_mode, *specs, rounds=8):
    """Run the reference and engines round-for-round on identical
    occurring phrases.

    The reference runs in ``reference_mode`` and is the one every engine
    is compared with; each spec is ``(mode,)`` or ``(mode, exec_cache)``
    of an engine.  Each holds its own ``random.Random(seed)``; sampling
    phrases from the reference and copying its state into the engines
    keeps their RNGs untouched by sampling, so click draws stay aligned
    *because* the displayed ads are identical -- which is exactly what
    is asserted.

    Returns:
        ``(reference_scans, collectors)``: the advertiser entries the
        reference scanned, and one collector per engine spec.
    """
    collectors = [MetricsCollector() for _ in specs]
    first = ReferenceEngine(
        market.advertisers,
        [0.3, 0.2, 0.1],
        market.search_rates,
        mode=reference_mode,
        seed=seed,
    )
    others = [
        _build(market, spec[0], seed, collector, *spec[1:])
        for spec, collector in zip(specs, collectors)
    ]
    specs = (("reference", reference_mode),) + specs
    reference_scans = 0
    for round_index in range(rounds):
        occurring = first.sample_occurring_phrases()
        state = first._rng.getstate()
        report_a = first.run_round(occurring)
        reference_scans += report_a.scans
        for spec, engine in zip(specs[1:], others):
            engine._rng.setstate(state)
            report_b = engine.run_round(occurring)
            assert report_a.allocations == report_b.allocations, (
                f"{specs[0]} vs {spec} diverged in round {round_index} "
                f"(seed {seed})"
            )
            assert report_a.revenue_cents == report_b.revenue_cents
            assert report_a.forgiven_cents == report_b.forgiven_cents
            assert report_a.displays == report_b.displays
            assert report_a.clicks == report_b.clicks
            for advertiser in market.advertisers:
                assert first.budget_manager.remaining_cents(
                    advertiser.advertiser_id
                ) == engine.budget_manager.remaining_cents(
                    advertiser.advertiser_id
                ), f"budget trajectory diverged in round {round_index}"
    return reference_scans, collectors


class TestSharedMatchesUnshared:
    @pytest.mark.parametrize("seed", DIFFERENTIAL_SEEDS)
    def test_identical_outcomes_and_fewer_scans(self, seed):
        market = _small_market(seed)
        unshared_scans, (shared,) = _run_lockstep(
            market, seed, "unshared", ("shared",)
        )
        # Work comparison: leaf reads of the shared plan vs the full
        # per-phrase scans of the reference.
        assert shared.counter(names.PLAN_LEAF_SCANS) <= unshared_scans
        assert shared.counter(names.ENGINE_ROUNDS) == 8


class TestSharedSortMatchesUnshared:
    # The c_i^q round scan held to the reference: every seed.
    @pytest.mark.parametrize("seed", DIFFERENTIAL_SEEDS)
    def test_identical_outcomes(self, seed, monkeypatch):
        market = _small_market(seed)
        scans = watch_round_scans(monkeypatch)
        _, (shared_sort,) = _run_lockstep(
            market, seed, "unshared", ("shared-sort",)
        )
        assert_scanned_with_phrase_ctrs(scans)
        assert shared_sort.counter(names.TOPK_SCANS) == shared_sort.counter(
            names.ENGINE_PHRASES
        )


class TestExecCacheMatchesShared:
    """Cross-round caching is invisible to the auction (the determinism
    contract): ``--exec-cache`` must replay the exact winners, prices,
    budget trajectories, and per-round allocations of the reference, as
    uncached shared execution does, while reading no more leaves than
    uncached shared execution."""

    SPECS = ("shared", ("shared", True), ("shared",))

    @pytest.mark.parametrize("seed", DIFFERENTIAL_SEEDS)
    def test_identical_outcomes_and_no_more_leaf_scans(self, seed):
        market = _small_market(seed)
        _, (cached, plain) = _run_lockstep(market, seed, *self.SPECS)
        # _run_lockstep already asserted allocations, revenue, and budget
        # trajectories round by round; here we check the work contract:
        # a cached round scans only fragments with a moved row.
        assert cached.counter(names.PLAN_LEAF_SCANS) <= plain.counter(
            names.PLAN_LEAF_SCANS
        )
        # The uncached engine must never report cross-round counters.
        assert plain.counter(names.PLAN_NODES_REUSED) == 0
        assert plain.counter(names.PLAN_REVALIDATIONS) == 0

    def test_cache_actually_reuses_work(self):
        market = _small_market(11)
        _, (cached, _) = _run_lockstep(market, 11, *self.SPECS, rounds=12)
        assert (
            cached.counter(names.PLAN_NODES_REUSED)
            + cached.counter(names.PLAN_REVALIDATIONS)
            > 0
        )


class TestRoundCounterRollups:
    def test_round_deltas_sum_to_engine_totals(self):
        market = _small_market(3)
        collector = MetricsCollector()
        engine = _build(market, "shared", seed=3, collector=collector)
        report = engine.run(6)
        assert report.counters is not None
        summed: dict = {}
        for round_report in report.history:
            assert round_report.counters is not None
            for name, value in round_report.counters.items():
                summed[name] = summed.get(name, 0) + value
        assert summed == report.counters
        assert report.counters[names.ENGINE_ROUNDS] == 6
        assert report.counters[names.ENGINE_DISPLAYS] == report.displays
        assert report.counters[names.ENGINE_REVENUE_CENTS] == sum(
            r.revenue_cents for r in report.history
        )

    def test_null_collector_reports_no_counters(self):
        market = _small_market(3)
        engine = _build(market, "shared", seed=3)
        report = engine.run(3)
        assert report.counters is None
        assert all(r.counters is None for r in report.history)

    def test_allocations_recorded_for_every_occurring_phrase(self):
        market = _small_market(4)
        engine = _build(market, "unshared", seed=4)
        for _ in range(5):
            report = engine.run_round()
            assert set(report.allocations) == set(report.occurring_phrases)
            for phrase, triples in report.allocations.items():
                slots = [slot for slot, _, _ in triples]
                assert slots == sorted(slots)
                assert report.displays >= len(triples) > 0 or triples == ()


class TestCollectorPurity:
    def test_collector_does_not_change_outcomes(self):
        market = _small_market(7)
        plain = _build(market, "shared", seed=7).run(8)
        instrumented = _build(
            market, "shared", seed=7, collector=MetricsCollector()
        ).run(8)
        assert plain.revenue_cents == instrumented.revenue_cents
        assert plain.displays == instrumented.displays
        assert plain.clicks == instrumented.clicks
        assert [r.allocations for r in plain.history] == [
            r.allocations for r in instrumented.history
        ]
