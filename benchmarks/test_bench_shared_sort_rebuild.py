"""E13 -- the shared-sort hot path: lazy builder and batched pulls.

Two claims, two gates, on the scaled nonseparable workload (per-phrase
CTR factors force Section III; the small paper-scale point is reported
but not gated):

1. **Builder**: the lazy pair-heap completion performs at least 5x
   fewer expected-savings evaluations than the naive full rescan and is
   at least 2x faster in wall-clock, while building the byte-identical
   plan (serialized-form equality asserted here, not just counters).
2. **Batched pulls**: the batched threshold path issues at most the
   operator pulls of the item-at-a-time register model (strict counter
   parity is asserted), and a warm replay pass pulls nothing.

Counter gates are deterministic; the wall-clock floor has large
headroom (measured ~50x) against timer noise.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.instrument import MetricsCollector, names as metric_names
from repro.sharedsort.plan import SortBuilderStats, build_shared_sort_plan
from repro.sharedsort.serialize import serialize_plan
from repro.sharedsort.threshold import threshold_top_k
from repro.metrics.tables import ExperimentTable

SAVINGS_REDUCTION_FLOOR = 5.0
WALL_SPEEDUP_FLOOR = 2.0
TOP_K = 4


def _nonseparable_workload(seed, num_phrases, num_ads):
    """A shared-sort instance with per-phrase CTR factors.

    Overlapping advertiser interests make merge sharing worthwhile;
    distinct per-phrase factors are what force the Section III pipeline
    (bids shared, CTR orders per phrase) instead of plain aggregation.
    """
    rng = random.Random(seed)
    phrases = {}
    for p in range(num_phrases):
        # Phrase interest sets span up to a quarter of the market: wide
        # enough that merge sharing pays, narrow enough that one dirty
        # advertiser does not sit under every phrase's ancestor cone.
        size = rng.randint(6, max(6, num_ads // 4))
        phrases[f"q{p:02d}"] = sorted(rng.sample(range(num_ads), size))
    rates = {
        phrase: rng.choice([0.9, 0.7, 0.5, 0.3]) for phrase in phrases
    }
    factors = {
        phrase: {i: round(rng.uniform(0.05, 1.5), 3) for i in ids}
        for phrase, ids in phrases.items()
    }
    bids = {i: round(rng.uniform(0.1, 50.0), 2) for i in range(num_ads)}
    return phrases, rates, factors, bids, rng


def _workloads():
    """(label, num_phrases, num_ads, scaled) benchmark points."""
    return [
        ("paper-scale 6x14", 6, 14, False),
        ("scaled 24x96", 24, 96, True),
    ]


def _build_both(phrases, rates):
    results = {}
    for planner in ("naive", "lazy"):
        stats = SortBuilderStats()
        started = time.perf_counter()
        plan = build_shared_sort_plan(
            phrases, rates, planner=planner, stats=stats
        )
        elapsed = time.perf_counter() - started
        results[planner] = (stats, elapsed, plan)
    return results


@pytest.mark.experiment("SharedSortRebuild")
def test_builder_and_batching_gates(benchmark):
    table = ExperimentTable(
        "Shared-sort rebuild: builder work",
        ["workload", "evals naive", "evals lazy", "reduction",
         "wall speedup"],
    )
    for label, num_phrases, num_ads, scaled in _workloads():
        phrases, rates, factors, bids, _ = _nonseparable_workload(
            3, num_phrases, num_ads
        )
        built = _build_both(phrases, rates)
        naive_stats, naive_s, naive_plan = built["naive"]
        lazy_stats, lazy_s, lazy_plan = built["lazy"]
        assert serialize_plan(naive_plan) == serialize_plan(lazy_plan), (
            f"{label}: plans diverged"
        )
        reduction = naive_stats.savings_evaluated / max(
            1, lazy_stats.savings_evaluated
        )
        speedup = naive_s / lazy_s if lazy_s else float("inf")

        table.add(
            label,
            naive_stats.savings_evaluated,
            lazy_stats.savings_evaluated,
            reduction,
            speedup,
        )
        if scaled:
            assert reduction >= SAVINGS_REDUCTION_FLOOR, (
                f"{label}: savings evaluations reduced only "
                f"{reduction:.2f}x (floor {SAVINGS_REDUCTION_FLOOR}x)"
            )
            assert speedup >= WALL_SPEEDUP_FLOOR, (
                f"{label}: builder wall-clock speedup only {speedup:.2f}x "
                f"(floor {WALL_SPEEDUP_FLOOR}x)"
            )

    # Batched pull parity on the scaled workload: the batched engine's
    # operator pulls must equal the register model's (items() never
    # prefetches past its lo), and a warm replay pulls nothing.
    phrases, rates, factors, bids, _ = _nonseparable_workload(3, 24, 96)
    plan = build_shared_sort_plan(phrases, rates)
    ctr_orders = {
        phrase: sorted(ids, key=lambda i: (-factors[phrase][i], i))
        for phrase, ids in phrases.items()
    }
    parity = {}
    warm = {}
    for batched in (True, False):
        collector = MetricsCollector()
        live = plan.instantiate(bids, collector)
        for phrase in sorted(phrases):
            threshold_top_k(
                TOP_K,
                live.stream_for_phrase(phrase),
                ctr_orders[phrase],
                bids,
                factors[phrase],
                collector,
                batched=batched,
            )
        parity[batched] = dict(collector.snapshot())
        # Warm pass: every stream replays its cache -- the regime shared
        # operators put the engine in.
        snapshot = collector.snapshot()
        for phrase in sorted(phrases):
            threshold_top_k(
                TOP_K,
                live.stream_for_phrase(phrase),
                ctr_orders[phrase],
                bids,
                factors[phrase],
                collector,
                batched=batched,
            )
        warm[batched] = collector.delta_since(snapshot)
    pulls_batched = parity[True].get(metric_names.SORT_OPERATOR_PULLS, 0)
    pulls_item = parity[False].get(metric_names.SORT_OPERATOR_PULLS, 0)
    assert pulls_batched <= pulls_item, (
        f"batched pulls {pulls_batched} exceed item-at-a-time {pulls_item}"
    )
    assert warm[True].get(metric_names.SORT_OPERATOR_PULLS, 0) == 0

    table.show()

    # Timed kernel: one round on the scaled workload -- the network
    # instantiated fresh and every phrase ranked through it.
    def fresh_round():
        live = plan.instantiate(bids)
        for phrase in sorted(phrases):
            threshold_top_k(
                TOP_K,
                live.stream_for_phrase(phrase),
                ctr_orders[phrase],
                bids,
                factors[phrase],
            )

    benchmark(fresh_round)


@pytest.mark.experiment("SharedSortRebuild")
def test_lazy_builder_kernel(benchmark):
    phrases, rates, _, _, _ = _nonseparable_workload(3, 24, 96)
    benchmark(lambda: build_shared_sort_plan(phrases, rates, planner="lazy"))
