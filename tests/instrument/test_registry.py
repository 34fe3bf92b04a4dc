"""Unit tests for the metrics registry."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, strategies as st

from repro.instrument import (
    NULL,
    Collector,
    MetricsCollector,
    NullCollector,
    TraceRing,
    names,
)


class TestNullCollector:
    def test_singleton_is_disabled(self):
        assert NULL.enabled is False
        assert isinstance(NULL, NullCollector)

    def test_all_operations_are_inert(self):
        NULL.incr("a")
        NULL.incr("a", 5)
        NULL.incr_keyed("b", 1)
        NULL.gauge("g", 3.0)
        NULL.event("e", x=1)
        NULL.add_time("t", 0.5)
        assert NULL.counter("a") == 0
        assert NULL.snapshot() == {}
        assert NULL.delta_since({"a": 3}) == {}

    def test_base_collector_contract(self):
        # Collector itself is usable as a no-op (subclass extension point).
        collector = Collector()
        collector.incr("x", 2)
        assert collector.counter("x") == 0


class TestMetricsCollector:
    def test_incr_accumulates(self):
        collector = MetricsCollector()
        collector.incr("plan.nodes")
        collector.incr("plan.nodes", 4)
        assert collector.counter("plan.nodes") == 5
        assert collector.counter("unknown") == 0

    def test_keyed_counters(self):
        collector = MetricsCollector()
        collector.incr_keyed(names.PLAN_NODE_MERGES, 7)
        collector.incr_keyed(names.PLAN_NODE_MERGES, 7, 2)
        collector.incr_keyed(names.PLAN_NODE_MERGES, 9)
        assert collector.keyed(names.PLAN_NODE_MERGES) == {7: 3, 9: 1}
        assert collector.keyed("unknown") == {}

    def test_gauge_last_write_wins(self):
        collector = MetricsCollector()
        collector.gauge("ta.stop_depth", 4)
        collector.gauge("ta.stop_depth", 2)
        assert collector.gauges["ta.stop_depth"] == 2.0

    def test_timer_accumulates_spans(self):
        collector = MetricsCollector()
        for seconds in (0.25, 0.5, 0.125):
            collector.add_time("engine.round_seconds", seconds)
        stats = collector.timers["engine.round_seconds"]
        assert stats.count == 3
        assert stats.total_s == 0.875

    def test_snapshot_delta(self):
        collector = MetricsCollector()
        collector.incr("a", 2)
        snapshot = collector.snapshot()
        collector.incr("a", 3)
        collector.incr("b")
        assert collector.delta_since(snapshot) == {"a": 3, "b": 1}
        # Unchanged counters are omitted from the delta.
        assert collector.delta_since(collector.snapshot()) == {}
        # Snapshots are frozen copies, not views.
        assert snapshot == {"a": 2}

    def test_reset_clears_everything(self):
        collector = MetricsCollector(trace=TraceRing(8))
        collector.incr("a")
        collector.incr_keyed("k", 1)
        collector.gauge("g", 1.0)
        collector.add_time("t", 1.0)
        collector.event("e")
        collector.reset()
        assert collector.counters == {}
        assert collector.keyed_counters == {}
        assert collector.gauges == {}
        assert collector.timers == {}
        assert len(collector.trace) == 0

    def test_event_without_ring_is_dropped(self):
        collector = MetricsCollector()
        collector.event("engine.round", round_index=0)  # must not raise

    def test_event_with_ring_records(self):
        ring = TraceRing(4)
        collector = MetricsCollector(trace=ring)
        collector.event("engine.round", round_index=3)
        (event,) = ring.events()
        assert event.name == "engine.round"
        assert event.fields["round_index"] == 3

    def test_json_round_trip(self):
        collector = MetricsCollector(trace=TraceRing(4))
        collector.incr("plan.nodes", 7)
        collector.incr_keyed("plan.node_merges", 3, 2)
        collector.gauge("ta.stop_depth", 5)
        collector.add_time("engine.round_seconds", 0.5)
        collector.event("engine.round", round_index=0, displays=2)
        payload = json.loads(collector.to_json())
        assert payload["counters"]["plan.nodes"] == 7
        assert payload["keyed_counters"]["plan.node_merges"] == {"3": 2}
        assert payload["gauges"]["ta.stop_depth"] == 5.0
        assert payload["timers"]["engine.round_seconds"] == {
            "count": 1, "total_s": 0.5,
        }
        assert payload["trace"]["events"][0]["name"] == "engine.round"

    def test_dump_writes_file(self, tmp_path):
        collector = MetricsCollector()
        collector.incr("a", 1)
        path = tmp_path / "metrics.json"
        collector.dump(str(path))
        assert json.loads(path.read_text())["counters"] == {"a": 1}

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "c"]),
                st.integers(min_value=1, max_value=100),
            ),
            max_size=30,
        )
    )
    def test_counters_equal_sum_of_increments(self, increments):
        collector = MetricsCollector()
        expected: dict[str, int] = {}
        for name, value in increments:
            collector.incr(name, value)
            expected[name] = expected.get(name, 0) + value
        assert collector.counters == expected

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["a", "b"]),
                st.integers(min_value=1, max_value=10),
            ),
            max_size=20,
        ),
        st.integers(min_value=0, max_value=20),
    )
    def test_delta_since_is_total_minus_snapshot(self, increments, cut):
        collector = MetricsCollector()
        for name, value in increments[:cut]:
            collector.incr(name, value)
        snapshot = collector.snapshot()
        for name, value in increments[cut:]:
            collector.incr(name, value)
        delta = collector.delta_since(snapshot)
        for name in set(collector.counters) | set(snapshot):
            assert delta.get(name, 0) == collector.counter(name) - snapshot.get(
                name, 0
            )
