"""The unified invalidation bus: delivery semantics.

Covers the :class:`repro.engine.changefeed.ChangeFeed` event bus itself:
kind filtering, drain ordering, push handlers, the ``active`` guard,
the ``bus.*`` counters and the event shapes -- and the engine's side of
the contract as a publisher, seen through an outside probe: every round
and every served query closes with exactly one ``RoundClosed``, after
everything the round published.
"""

from __future__ import annotations

import pytest

from repro.engine.changefeed import (
    EVENT_KINDS,
    AdvertiserAdded,
    AdvertiserRemoved,
    BidChanged,
    BudgetChanged,
    ChangeEvent,
    ChangeFeed,
    PhraseAdded,
    PhraseRemoved,
    QueryServed,
    RoundClosed,
)
from repro.engine.pipeline import SharedAuctionEngine
from repro.errors import InvalidAuctionError
from repro.instrument import MetricsCollector, names
from repro.workloads.generator import MarketConfig, generate_market


class TestChangeFeedDelivery:
    def test_inactive_until_someone_listens(self):
        feed = ChangeFeed()
        assert not feed.active
        feed.subscribe("watcher")
        assert feed.active

    def test_attach_also_activates(self):
        feed = ChangeFeed()
        feed.attach(lambda event: None, kinds=("round_closed",))
        assert feed.active

    def test_drain_returns_publication_order_and_empties(self):
        feed = ChangeFeed()
        sub = feed.subscribe("watcher")
        events = [BidChanged(1), BudgetChanged(2), RoundClosed(0)]
        feed.publish_all(events)
        assert sub.pending == 3
        assert sub.drain() == events
        assert sub.pending == 0
        assert sub.drain() == []

    def test_kind_filter_drops_unmatched_events(self):
        feed = ChangeFeed()
        bids_only = feed.subscribe("bids", kinds=("bid_changed",))
        everything = feed.subscribe("all")
        feed.publish(BidChanged(1))
        feed.publish(BudgetChanged(2))
        assert bids_only.drain() == [BidChanged(1)]
        assert len(everything.drain()) == 2

    def test_unknown_kind_rejected(self):
        feed = ChangeFeed()
        with pytest.raises(InvalidAuctionError, match="unknown event kinds"):
            feed.subscribe("bad", kinds=("bid_chnaged",))
        with pytest.raises(InvalidAuctionError, match="unknown event kinds"):
            feed.attach(lambda event: None, kinds=("no_such_kind",))

    def test_push_handler_fires_at_publish_time(self):
        feed = ChangeFeed()
        seen = []
        feed.attach(seen.append, kinds=("phrase_added", "phrase_removed"))
        feed.publish(PhraseAdded("p", frozenset({1})))
        feed.publish(BidChanged(1))  # filtered out
        feed.publish(PhraseRemoved("p"))
        assert [event.kind for event in seen] == [
            "phrase_added",
            "phrase_removed",
        ]

    def test_counters_track_published_and_consumed(self):
        collector = MetricsCollector()
        feed = ChangeFeed(collector)
        sub = feed.subscribe("a", kinds=("bid_changed",))
        feed.attach(lambda event: None, kinds=("bid_changed",))
        feed.publish(BidChanged(1))   # queued once, pushed once
        feed.publish(RoundClosed(0))  # matched by nobody
        sub.drain()
        assert feed.events_published == 2
        assert feed.events_consumed == 2  # one push + one drain
        assert collector.counter(names.BUS_EVENTS_PUBLISHED) == 2
        assert collector.counter(names.BUS_EVENTS_CONSUMED) == 2


class TestEventShapes:
    def test_every_kind_is_registered(self):
        assert len(EVENT_KINDS) == len(set(EVENT_KINDS)) == 8

    @pytest.mark.parametrize(
        "event, dirty",
        [
            (BidChanged(7), {7}),
            (BudgetChanged(7), {7}),
            (AdvertiserAdded(7, frozenset({"p"})), {7}),
            (AdvertiserRemoved(7), {7}),
            (PhraseAdded("p", frozenset({1, 2})), {1, 2}),
            (PhraseRemoved("p"), set()),
            (RoundClosed(3), set()),
            (QueryServed(4, "p"), set()),
        ],
    )
    def test_dirty_advertisers(self, event, dirty):
        assert event.dirty_advertisers == frozenset(dirty)
        assert event.kind in EVENT_KINDS

    def test_base_event_is_inert(self):
        event = ChangeEvent()
        assert event.kind == "change"
        assert event.dirty_advertisers == frozenset()


ENGINE_CONFIGS = [
    ("unshared", "object"),
    ("shared", "object"),
    ("shared-sort", "object"),
    ("unshared", "columnar"),
    ("shared", "columnar"),
    ("shared-sort", "columnar"),
]


class TestTheEngineAsPublisher:
    def _engine(self, mode, layout):
        if layout == "columnar":
            pytest.importorskip("numpy")
        market = generate_market(
            MarketConfig(
                num_categories=3,
                phrases_per_category=3,
                specialists_per_category=5,
                generalists=3,
                generalist_categories=2,
                median_budget_cents=2_000,
                seed=4,
            )
        )
        return SharedAuctionEngine(
            market.advertisers,
            slot_factors=[0.3, 0.2, 0.1],
            search_rates=market.search_rates,
            mode=mode,
            layout=layout,
            seed=4,
        )

    @pytest.mark.parametrize("mode, layout", ENGINE_CONFIGS)
    def test_every_round_and_query_closes_after_its_events(self, mode, layout):
        engine = self._engine(mode, layout)
        probe = engine.changefeed.subscribe("probe")
        closes = engine.changefeed.subscribe("closes", kinds=("round_closed",))
        phrases = sorted(engine.phrase_advertisers)
        for index in range(8):
            if index < 5:
                engine.run_round()
            else:
                engine.serve_query(phrases[index % len(phrases)])
            events = probe.drain()
            assert events[-1] == RoundClosed(index)
            assert sum(isinstance(e, RoundClosed) for e in events) == 1
        assert closes.drain() == [RoundClosed(index) for index in range(8)]
