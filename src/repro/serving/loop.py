"""The query-at-a-time serving loop.

:class:`ServingEngine` drives a :class:`repro.engine.SharedAuctionEngine`
the way live search traffic would: queries arrive one at a time from a
seeded :class:`repro.serving.traffic.TrafficGenerator`, each query
triggers winner determination for *just its phrase* through
:meth:`SharedAuctionEngine.serve_query`, and clicks settle against the
budget books asynchronously relative to query processing -- a click
settles some ticks after the display that earned it.  With
``exec_cache`` the batch engine's cross-round cache (the columnar
fragment executor) is the serving engine's *steady-state* cache: between
consecutive queries almost nothing moves, so the rows its score diff
finds dirty per query are few and reuse dominates.

Equivalence contract: serving a trace is outcome-identical -- winners,
prices, clicks, and the full budget trajectory -- to replaying the same
trace through the batch engine as single-phrase rounds
(:func:`repro.engine.rounds.singleton_rounds` is that replay's
vocabulary), with and without the exec cache.  The 50-seed differential
suite in ``tests/serving`` enforces this; the serving loop changes
*when* work happens and *how much* of it there is, never the auction's
outcomes.

Latency is recorded per query into an exact
:class:`repro.serving.latency.LatencyRecorder`; the session's p50/p99
and sustained QPS surface as ``serve.*`` gauges, while everything
counted (``serve.queries`` and all engine/plan/sort counters) stays
deterministic for a fixed configuration.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.engine.pipeline import RoundReport, SharedAuctionEngine
from repro.errors import InvalidAuctionError
from repro.instrument import Collector, names as metric_names
from repro.serving.latency import LatencyRecorder, LatencySummary
from repro.serving.traffic import QueryArrival, TrafficGenerator

__all__ = ["ServingEngine", "ServingReport", "QueryReport"]


@dataclass(frozen=True)
class QueryReport:
    """Outcome and timing of one served query.

    Attributes:
        query_index: Arrival order in the trace.
        tick: The engine tick (round index) that served the query.
        phrase: The query's bid phrase.
        arrival_time: The trace-clock arrival time in seconds.
        allocation: Displayed ads as ``(slot, advertiser_id,
            price_cents)`` triples in slot order -- same shape as
            :attr:`repro.engine.pipeline.RoundReport.allocations`
            values, so differential tests compare them directly.
        revenue_cents: Click payments settled during the tick.
        forgiven_cents: Click value forgiven during the tick.
        clicks: Clicks that arrived during the tick.
        displays: Ads displayed for this query.
        latency_seconds: Wall time spent resolving the query.
        expired_ads: Outstanding ads discarded at the start of the tick.
        debt_carriers_scored: The query's advertisers whose outstanding
            debt needed a real throttle problem (see
            :attr:`repro.engine.pipeline.RoundReport.debt_carriers_scored`).
            With ``expired_ads``, what the books cost this query.
    """

    query_index: int
    tick: int
    phrase: str
    arrival_time: float
    allocation: Tuple[Tuple[int, int, int], ...]
    revenue_cents: int
    forgiven_cents: int
    clicks: int
    displays: int
    latency_seconds: float
    expired_ads: int = 0
    debt_carriers_scored: int = 0


@dataclass
class ServingReport:
    """Aggregate outcome of one serving session.

    Attributes:
        queries: Queries served.
        displays: Ads displayed.
        clicks: Clicks settled (including the end-of-session flush).
        revenue_cents: Click payments collected (including the flush).
        forgiven_cents: Click value forgiven (including the flush).
        latency: Exact percentile/throughput summary of the session.
        history: Per-query reports, in arrival order (empty when the
            session ran with ``keep_history=False``).
        counters: Cumulative counter increments over the session when
            the engine ran with an enabled collector, ``None`` otherwise.
    """

    queries: int = 0
    displays: int = 0
    clicks: int = 0
    revenue_cents: int = 0
    forgiven_cents: int = 0
    latency: LatencySummary = field(
        default_factory=lambda: LatencySummary(0, 0.0, 0.0, 0.0, 0.0)
    )
    history: List[QueryReport] = field(default_factory=list)
    counters: Optional[Dict[str, int]] = None


class ServingEngine:
    """Serves seeded query traffic through a shared auction engine.

    Args:
        engine: The auction engine to drive.  Any mode and cache
            configuration works; with ``exec_cache`` the columnar
            fragment executor becomes the steady-state serving cache
            (it diffs each query's scores).
        traffic: The arrival source.  Its phrase universe must be a
            subset of the engine's bid phrases (checked up front --
            a serving session must not die mid-trace on a typo).
        keep_history: Keep a :class:`QueryReport` per query on the
            session report.  Differential tests need the history; long
            benchmark sessions can turn it off to bound memory.
        clock: Monotonic time source used for latency measurement
            (injectable for deterministic tests); defaults to
            :func:`time.perf_counter`.

    Attributes:
        engine: The driven engine.
        traffic: The arrival source.
        latency: The session's :class:`LatencyRecorder`.
        queries_served: Queries resolved so far across all ``serve_*``
            calls.
    """

    def __init__(
        self,
        engine: SharedAuctionEngine,
        traffic: TrafficGenerator,
        keep_history: bool = True,
        clock=time.perf_counter,
    ) -> None:
        unknown = sorted(
            set(traffic.phrases) - set(engine.phrase_advertisers)
        )
        if unknown:
            raise InvalidAuctionError(
                f"traffic phrases unknown to the engine: {unknown!r}"
            )
        self.engine = engine
        self.traffic = traffic
        self.keep_history = keep_history
        self.latency = LatencyRecorder()
        self.queries_served = 0
        self._clock = clock

    @property
    def collector(self) -> Collector:
        """The engine's collector (the loop never has its own)."""
        return self.engine.collector

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    def serve_one(self, arrival: QueryArrival) -> QueryReport:
        """Resolve one arrival end to end and record its latency."""
        engine = self.engine
        collector = self.collector
        started = self._clock()
        with collector.timer(metric_names.SERVE_QUERY_TIMER):
            round_report: RoundReport = engine.serve_query(arrival.phrase)
        elapsed = max(0.0, self._clock() - started)
        self.latency.record(elapsed)
        self.queries_served += 1
        collector.incr(metric_names.SERVE_QUERIES)
        return QueryReport(
            query_index=arrival.index,
            tick=round_report.round_index,
            phrase=arrival.phrase,
            arrival_time=arrival.arrival_time,
            allocation=round_report.allocations[arrival.phrase],
            revenue_cents=round_report.revenue_cents,
            forgiven_cents=round_report.forgiven_cents,
            clicks=round_report.clicks,
            displays=round_report.displays,
            latency_seconds=elapsed,
            expired_ads=round_report.expired_ads,
            debt_carriers_scored=round_report.debt_carriers_scored,
        )

    def run(self, num_queries: int) -> ServingReport:
        """Serve ``num_queries`` arrivals, then settle pending clicks.

        Returns:
            The session report: money/click totals (flush included),
            the exact latency summary, per-query history (when kept),
            and -- with an enabled collector -- the session's cumulative
            counter deltas.
        """
        if num_queries < 0:
            raise InvalidAuctionError(
                f"num_queries must be >= 0, got {num_queries}"
            )
        collector = self.collector
        snapshot = collector.snapshot() if collector.enabled else None
        report = ServingReport()
        for arrival in self.traffic.take(num_queries):
            query_report = self.serve_one(arrival)
            report.queries += 1
            report.displays += query_report.displays
            report.clicks += query_report.clicks
            report.revenue_cents += query_report.revenue_cents
            report.forgiven_cents += query_report.forgiven_cents
            if self.keep_history:
                report.history.append(query_report)
        revenue, forgiven, clicks = self.engine.settle_remaining_clicks()
        report.revenue_cents += revenue
        report.forgiven_cents += forgiven
        report.clicks += clicks
        report.latency = self.flush_latency()
        if snapshot is not None:
            report.counters = collector.delta_since(snapshot)
        return report

    def flush_latency(self) -> LatencySummary:
        """Summarize recorded latencies and flush the ``serve.*`` gauges.

        Wall-derived figures go to *gauges* only; counters must stay
        identical across identical runs (the determinism test's
        contract).
        """
        summary = self.latency.summary()
        collector = self.collector
        if collector.enabled and summary.count:
            collector.gauge(
                metric_names.SERVE_P50_MS, summary.p50_seconds * 1000.0
            )
            collector.gauge(
                metric_names.SERVE_P99_MS, summary.p99_seconds * 1000.0
            )
            collector.gauge(metric_names.SERVE_QPS, summary.qps)
        return summary
