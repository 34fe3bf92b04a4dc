"""E17 -- the unified invalidation bus: what one event costs.

The bus must be cheap enough to be invisible: publishing a typed event
and draining it from a subscription is a few dict/list operations, paid
once per *changed advertiser* per booking call -- independent of plan
size.  This experiment measures that per-event cost in isolation, then
counts the events a real engine market publishes while a probe
subscription keeps the feed active (nothing inside the engine
subscribes, so without one it publishes nothing).  Everything is
written to ``BENCH_changefeed.json`` at the repo root as the
reproduction record.

The only wall-clock gate is a deliberately generous per-event ceiling
(100 us -- measured ~1 us) to catch pathological regressions without CI
noise.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.engine.changefeed import BidChanged, ChangeFeed
from repro.engine.pipeline import SharedAuctionEngine
from repro.instrument import MetricsCollector, names
from repro.workloads.generator import MarketConfig, generate_market

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_changefeed.json"
PER_EVENT_CEILING_SECONDS = 100e-6
MICRO_EVENTS = 20_000
ENGINE_ROUNDS = 30


def _measure_per_event_seconds():
    """Publish/drain cost per event with one probe subscriber."""
    feed = ChangeFeed()
    sub = feed.subscribe(
        "probe", kinds=("bid_changed", "budget_changed")
    )
    events = [BidChanged(i % 64) for i in range(MICRO_EVENTS)]
    started = time.perf_counter()
    for index, event in enumerate(events):
        feed.publish(event)
        if index % 100 == 99:  # drain in round-sized batches
            sub.drain()
    sub.drain()
    elapsed = time.perf_counter() - started
    assert feed.events_published == MICRO_EVENTS
    assert feed.events_consumed == MICRO_EVENTS
    return elapsed / MICRO_EVENTS


@pytest.mark.experiment("ChangeFeed")
def test_bus_overhead(benchmark):
    per_event = _measure_per_event_seconds()
    assert per_event <= PER_EVENT_CEILING_SECONDS, (
        f"bus costs {per_event * 1e6:.1f} us/event "
        f"(ceiling {PER_EVENT_CEILING_SECONDS * 1e6:.0f} us)"
    )

    # Engine-level event traffic on a generated market: how many events
    # one real round publishes (displays, clicks, expiries, m_i moves)
    # while a probe keeps the feed active.
    market = generate_market(
        MarketConfig(
            num_categories=3,
            phrases_per_category=4,
            specialists_per_category=15,
            generalists=20,
            generalist_categories=2,
            seed=9,
        )
    )
    collector = MetricsCollector()
    engine = SharedAuctionEngine(
        market.advertisers,
        slot_factors=[0.3, 0.2, 0.1],
        search_rates=market.search_rates,
        mode="shared",
        seed=13,
        collector=collector,
    )
    probe = engine.changefeed.subscribe("probe")
    for _ in range(ENGINE_ROUNDS):
        engine.run_round()
        probe.drain()
    engine_events = collector.counter(names.BUS_EVENTS_PUBLISHED)
    assert engine_events > 0
    assert collector.counter(names.BUS_EVENTS_CONSUMED) == engine_events

    record = {
        "per_event_seconds": round(per_event, 9),
        "per_event_ceiling_seconds": PER_EVENT_CEILING_SECONDS,
        "micro_events": MICRO_EVENTS,
        f"engine market ({ENGINE_ROUNDS} rounds, probe subscribed)": {
            "events_published": engine_events,
            "events_per_round": round(engine_events / ENGINE_ROUNDS, 1),
            "estimated_bus_overhead_seconds": round(
                engine_events * per_event, 6
            ),
        },
    }
    BENCH_JSON.write_text(json.dumps(record, indent=2) + "\n")

    # Timed kernel: one published event delivered to one subscriber and
    # drained -- the marginal cost a moved advertiser adds to a round.
    feed = ChangeFeed()
    sub = feed.subscribe("kernel", kinds=("bid_changed",))
    event = BidChanged(7)

    def publish_and_drain():
        feed.publish(event)
        sub.drain()

    benchmark(publish_and_drain)
