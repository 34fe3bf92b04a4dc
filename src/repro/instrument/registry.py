"""The metrics registry: a null collector and a recording collector.

Instrumented code takes a ``collector`` argument defaulting to
:data:`NULL`, the shared :class:`NullCollector` singleton, and calls
``collector.incr(name, n)`` (and friends) unconditionally.  The null
collector's methods are empty -- the cost of instrumentation when
disabled is one attribute lookup and one no-op call per *flush*, not per
unit of work, because hot loops accumulate locally and flush once.

Code that wants per-key detail (e.g. per-plan-node merge counts) guards
on :attr:`Collector.enabled` so the disabled path never pays for key
formatting:

    if collector.enabled:
        collector.incr_keyed(PLAN_NODE_MERGES, node_id)

:class:`MetricsCollector` records counters (monotone ints), keyed
counters (``name -> key -> int``), gauges (last-written floats), and
timers (count + total seconds, one :meth:`Collector.add_time` span at
a time -- the caller measures), and can
carry a :class:`repro.instrument.trace.TraceRing` for structured events.
:meth:`MetricsCollector.snapshot` / :meth:`MetricsCollector.delta_since`
support per-round rollups: snapshot before the round, diff after.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Hashable, Mapping, Optional

from repro.instrument.trace import TraceRing

__all__ = [
    "Collector",
    "NullCollector",
    "MetricsCollector",
    "TimerStats",
    "NULL",
]


class Collector:
    """The collector interface; the base class collects nothing.

    Attributes:
        enabled: ``False`` on the null collector; callers guard optional
            expensive detail (keyed counters, event payload formatting)
            on this flag.
    """

    enabled = False

    def incr(self, name: str, value: int = 1) -> None:
        """Add ``value`` to counter ``name``."""

    def incr_keyed(self, name: str, key: Hashable, value: int = 1) -> None:
        """Add ``value`` to the ``key`` bucket of keyed counter ``name``."""

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""

    def add_time(self, name: str, seconds: float) -> None:
        """Add one span of ``seconds`` to timer ``name``."""

    def event(self, name: str, **fields: Any) -> None:
        """Record a structured trace event (dropped without a trace ring)."""

    def counter(self, name: str) -> int:
        """Current value of counter ``name`` (0 when unknown/disabled)."""
        return 0

    def snapshot(self) -> Dict[str, int]:
        """A frozen copy of the plain counters (empty when disabled)."""
        return {}

    def delta_since(self, snapshot: Mapping[str, int]) -> Dict[str, int]:
        """Counter increments since ``snapshot`` (empty when disabled)."""
        return {}


class NullCollector(Collector):
    """The no-op collector; use the shared :data:`NULL` singleton."""

    __slots__ = ()


NULL = NullCollector()
"""Shared no-op collector used as the default everywhere."""


class TimerStats:
    """Accumulated wall-time for one timer name."""

    __slots__ = ("count", "total_s")

    def __init__(self) -> None:
        self.count = 0
        self.total_s = 0.0

    def as_dict(self) -> Dict[str, float]:
        """JSON-ready view."""
        return {"count": self.count, "total_s": self.total_s}


class MetricsCollector(Collector):
    """A recording collector.

    Args:
        trace: Optional ring buffer receiving :meth:`event` records.
    """

    enabled = True

    def __init__(self, trace: Optional[TraceRing] = None) -> None:
        self.counters: Dict[str, int] = {}
        self.keyed_counters: Dict[str, Dict[Hashable, int]] = {}
        self.gauges: Dict[str, float] = {}
        self.timers: Dict[str, TimerStats] = {}
        self.trace = trace

    # -- recording -----------------------------------------------------
    def incr(self, name: str, value: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def incr_keyed(self, name: str, key: Hashable, value: int = 1) -> None:
        bucket = self.keyed_counters.setdefault(name, {})
        bucket[key] = bucket.get(key, 0) + value

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = float(value)

    def add_time(self, name: str, seconds: float) -> None:
        stats = self.timers.get(name)
        if stats is None:
            stats = self.timers[name] = TimerStats()
        stats.count += 1
        stats.total_s += seconds

    def event(self, name: str, **fields: Any) -> None:
        if self.trace is not None:
            self.trace.append(name, **fields)

    # -- reading -------------------------------------------------------
    def counter(self, name: str) -> int:
        return self.counters.get(name, 0)

    def keyed(self, name: str) -> Dict[Hashable, int]:
        """A copy of keyed counter ``name`` (empty when unknown)."""
        return dict(self.keyed_counters.get(name, {}))

    def snapshot(self) -> Dict[str, int]:
        """A frozen copy of the plain counters, for later diffing."""
        return dict(self.counters)

    def delta_since(self, snapshot: Mapping[str, int]) -> Dict[str, int]:
        """Counter increments since ``snapshot`` (zero deltas omitted)."""
        delta: Dict[str, int] = {}
        for name, value in self.counters.items():
            change = value - snapshot.get(name, 0)
            if change:
                delta[name] = change
        return delta

    def reset(self) -> None:
        """Clear all recorded metrics (the trace ring is kept, cleared)."""
        self.counters.clear()
        self.keyed_counters.clear()
        self.gauges.clear()
        self.timers.clear()
        if self.trace is not None:
            self.trace.clear()

    # -- export --------------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        """All metrics (and the trace, if any) as one JSON-ready dict."""
        payload: Dict[str, Any] = {
            "counters": dict(sorted(self.counters.items())),
            "keyed_counters": {
                name: {str(key): value for key, value in sorted(
                    bucket.items(), key=lambda item: str(item[0])
                )}
                for name, bucket in sorted(self.keyed_counters.items())
            },
            "gauges": dict(sorted(self.gauges.items())),
            "timers": {
                name: stats.as_dict()
                for name, stats in sorted(self.timers.items())
            },
        }
        if self.trace is not None:
            payload["trace"] = self.trace.as_dict()
        return payload

    def to_json(self, indent: Optional[int] = None) -> str:
        """Serialize all metrics to JSON text."""
        return json.dumps(self.as_dict(), indent=indent)

    def dump(self, path: str, indent: Optional[int] = 2) -> None:
        """Write all metrics (and trace) to ``path`` as JSON."""
        with open(path, "w") as handle:
            handle.write(self.to_json(indent=indent))
            handle.write("\n")
