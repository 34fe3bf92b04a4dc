"""Runs one workload in this process and derives its metrics.

Passes over the same generated inputs:

* **e2e** -- laps of a fresh engine, warm-up, then the timed closed
  loop, with tracing and the collector off.  Laps, each on its own
  traffic draw, repeat until ``--seconds`` are used.
* **verify** -- the first operations of a lap replayed through the
  uncached object-layout reference and compared outcome by outcome.
* **trace** (``--trace 1``) -- one more closed-loop lap with the span
  wrappers of :mod:`spans` installed and an enabled ``repro.instrument``
  collector, and for serving workloads an untraced open-loop phase at
  the workload's fixed rate.  End-to-end numbers never come from the
  traced lap; its time over an untraced lap's is
  ``trace.overhead_share``.

Times are at reference speed (see :mod:`calibration`).  One process, one
thread; the garbage collector stays on and is run before each timed
window.
"""

from __future__ import annotations

import gc
import hashlib
import math
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.instrument import MetricsCollector, names as metric_names
from repro.serving import QueryArrival, ServingEngine

import calibration
import inputs as gen
import spans
from workloads import Workload, generate_inputs, make_engine

SETUP_REPEATS = 5
MODEL_RATES_QPS = (250.0, 500.0, 1000.0, 2000.0, 4000.0)
MODEL_SOJOURN_LIMIT_MS = 5.0

SPAN_STATS = {
    # layer span name: the statistics reported as "<name>.<stat>" --
    # "s" seconds inside the spans, "self_s" the same minus child spans,
    # "calls".  BENCHMARK.json lists every metric with its unit.
    "budgets.exact_bid": ("s", "calls"),
    "budgets.ledger_snapshot": ("s", "calls"),
    "budgets.ledger_prune": ("s", "calls"),
    "engine.expire_outstanding": ("s",),
    "engine.outstanding_counts": ("s",),
    "engine.spent_snapshot": ("s",),
    "engine.throttle_problem": ("s", "calls"),
    "engine.settle_click": ("s", "calls"),
    "engine.record_display": ("s", "calls"),
    "engine.click_arrivals": ("s",),
    "engine.feed_publish": ("s", "calls"),
    "engine.feed_drain": ("s",),
    "engine.op": ("self_s",),
    "plans.run_round": ("self_s", "calls"),
    "core.top_k_merge": ("s", "calls"),
    "core.columnar_top_k": ("s", "calls"),
    "sharedsort.begin_round": ("s",),
    "sharedsort.rank_phrase": ("self_s", "calls"),
    "core.store_build": ("s",),
    "plans.init": ("s",),
    "sharedsort.init": ("s",),
    "serving.serve_one": ("self_s",),
}

SETUP_LAYERS = ("core.store_build", "plans.init", "sharedsort.init")
"""Layers whose spans are taken from engine construction, not the ops."""

MISMATCHES_SHOWN = 5

Outcome = Tuple[tuple, int, int, int]


def percentile(sorted_samples: Sequence[float], p: float) -> float:
    """Exact nearest-rank percentile of pre-sorted samples: the
    ``ceil(p/100 * n)``-th smallest, always an actual sample."""
    if not sorted_samples:
        raise ValueError("no samples")
    if not 0.0 < p <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    return sorted_samples[math.ceil(p / 100.0 * len(sorted_samples)) - 1]


def round_outcome(report) -> Outcome:
    """``(allocations, revenue, forgiven, clicks)`` of a ``RoundReport``."""
    return (
        tuple(sorted(report.allocations.items())),
        report.revenue_cents,
        report.forgiven_cents,
        report.clicks,
    )


def query_outcome(report) -> Outcome:
    """The same shape from a serving ``QueryReport``."""
    return (
        ((report.phrase, report.allocation),),
        report.revenue_cents,
        report.forgiven_cents,
        report.clicks,
    )


def outcomes_sha256(outcomes: Sequence[Optional[Outcome]]) -> str:
    """Fingerprint of a lap's per-op outcomes, in order."""
    digest = hashlib.sha256()
    for outcome in outcomes:
        digest.update(repr(outcome).encode())
        digest.update(b"\n")
    return digest.hexdigest()


class _Trace:
    """The phrase universe ``ServingEngine`` validates against; the
    arrivals themselves are handed to ``serve_one`` by the driver."""

    def __init__(self, phrases: Tuple[str, ...]) -> None:
        self.phrases = phrases


@dataclass
class Session:
    """A fresh engine and the callable that runs one operation on it."""

    call: Callable
    items: Sequence
    outcome: Callable[[object], Outcome]

    @classmethod
    def open(
        cls, workload: Workload, inputs: gen.Inputs, collector=None
    ) -> "Session":
        engine = make_engine(workload.profile, inputs, collector)
        if workload.kind == "batch":
            return cls(engine.run_round, inputs.rounds, round_outcome)
        serving = ServingEngine(
            engine, _Trace(inputs.phrases), keep_history=False
        )
        arrivals = [
            QueryArrival(index, arrival_time, phrase)
            for index, (arrival_time, phrase) in enumerate(inputs.arrivals)
        ]
        return cls(serving.serve_one, arrivals, query_outcome)


@dataclass
class Tally:
    """Operations attempted and failed, across every pass of a run."""

    attempted: int = 0
    failed: int = 0
    compared_with_oracle: int = 0

    def raised(self, index: int) -> None:
        self.failed += 1
        print(f"op {index} raised:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)

    def differing(
        self,
        what: str,
        outcomes: Sequence[Optional[Outcome]],
        reference: Sequence[Optional[Outcome]],
    ) -> None:
        """Count ops whose outcome differs from the reference's."""
        for index, (got, want) in enumerate(zip(outcomes, reference)):
            # An op that raised (None) is already counted.
            if got is not None and want is not None and got != want:
                self.failed += 1
                if self.failed <= MISMATCHES_SHOWN:
                    print(
                        f"op {index}: outcome differs from {what}: "
                        f"{got!r} != {want!r}",
                        file=sys.stderr,
                    )


@dataclass
class Timed:
    """The timed ops of one closed-loop lap.

    Attributes:
        wall: Wall seconds per timed op.
        slowdowns: The local slowdown at each timed op.
        outcomes: Outcome per op from the lap's start (warm-up
            included); ``None`` for an op that raised, which also has
            no timing.
    """

    wall: List[float] = field(default_factory=list)
    slowdowns: List[float] = field(default_factory=list)
    outcomes: List[Optional[Outcome]] = field(default_factory=list)

    @property
    def reference(self) -> List[float]:
        """Seconds per timed op at reference speed."""
        return [w / s for w, s in zip(self.wall, self.slowdowns)]


def closed_loop(
    session: Session,
    workload: Workload,
    tally: Tally,
    tracer: Optional[spans.Tracer] = None,
) -> Timed:
    """Warm up, then time the lap's ops back to back (one caller: the
    next op starts when the previous returns), running the calibration
    kernel before every ``workload.calibrate_every``-th of them."""
    call, items, outcome = session.call, session.items, session.outcome
    warm, every = workload.warm, workload.calibrate_every
    lap = Timed()
    kernel_runs: List[float] = []
    kernel_run_of: List[int] = []
    for index in range(warm + workload.timed):
        if index == warm:
            gc.collect()
        if index >= warm and (index - warm) % every == 0:
            kernel_runs.append(calibration.kernel())
        if tracer is not None:
            tracer.begin_op(index)
        item = items[index]
        start = perf_counter()
        try:
            result = call(item)
        except Exception:
            tally.raised(index)
            lap.outcomes.append(None)
            continue
        end = perf_counter()
        if index >= warm:
            lap.wall.append(end - start)
            kernel_run_of.append(len(kernel_runs) - 1)
        lap.outcomes.append(outcome(result))
    local = calibration.local_slowdowns(kernel_runs)
    lap.slowdowns = [local[run] for run in kernel_run_of]
    tally.attempted += warm + workload.timed
    return lap


@dataclass
class OpenLoop:
    """Per timed query of an open-loop phase: wall seconds from the
    phase's origin, and the slowdown its schedule was stretched by."""

    slowdown: float = 1.0
    due: List[float] = field(default_factory=list)
    started: List[float] = field(default_factory=list)
    ended: List[float] = field(default_factory=list)

    def sojourns(self) -> List[float]:
        """Completion minus due time, at reference speed."""
        return [
            (end - due) / self.slowdown
            for due, end in zip(self.due, self.ended)
        ]

    def generator_lags(self) -> List[float]:
        """How long after it could have started each query did start
        (wall): from the later of its due time and the previous
        completion."""
        lags, free_at = [], 0.0
        for due, start, end in zip(self.due, self.started, self.ended):
            lags.append(start - max(due, free_at))
            free_at = end
        return lags

    def backlog_end(self) -> int:
        """Earlier queries not yet started when the last one came due."""
        last_due = self.due[-1]
        return sum(1 for start in self.started[:-1] if start > last_due)


def open_loop(
    session: Session, workload: Workload, tally: Tally
) -> Tuple[OpenLoop, List[Optional[Outcome]]]:
    """Warm up closed-loop, then serve arrivals when they come due.

    Arrival ``i`` is due at the trace's ``arrival_time`` rescaled to
    ``workload.open_rate_qps`` in reference time: the schedule is
    stretched by the slowdown measured just before the phase, so the
    load offered relative to the machine's speed is the same on every
    run.  The one driver thread spins on ``perf_counter`` until the next
    arrival is due (or serves it at once when already late), so a stall
    delays every later query, and each query is timed from its due time.
    """
    call, items, outcome = session.call, session.items, session.outcome
    warm = workload.warm
    outcomes: List[Optional[Outcome]] = []
    for index in range(warm):
        try:
            outcomes.append(outcome(call(items[index])))
        except Exception:
            tally.raised(index)
            outcomes.append(None)
    timing = OpenLoop(slowdown=calibration.slowdown())
    first = items[warm].arrival_time
    offsets = [
        (items[index].arrival_time - first)
        / workload.open_rate_qps * timing.slowdown
        for index in range(warm, warm + workload.open_timed)
    ]
    results: List[object] = []
    gc.collect()
    origin = perf_counter()
    for position, offset in enumerate(offsets):
        item = items[warm + position]
        due = origin + offset
        start = perf_counter()
        while start < due:
            start = perf_counter()
        try:
            result = call(item)
        except Exception:
            tally.raised(warm + position)
            result = None
        end = perf_counter()
        timing.due.append(offset)
        timing.started.append(start - origin)
        timing.ended.append(end - origin)
        results.append(result)
    outcomes.extend(None if r is None else outcome(r) for r in results)
    tally.attempted += warm + workload.open_timed
    return timing, outcomes


def modelled_max_rate(
    service_seconds: Sequence[float], unit_arrivals: Sequence[float]
) -> float:
    """Highest of :data:`MODEL_RATES_QPS` a single FIFO server sustains.

    A model, not a measurement: the closed-loop service times are
    replayed against the trace's arrival schedule at each rate
    (``start = max(due, previous end)``).  A rate is sustained when the
    p95 sojourn stays within :data:`MODEL_SOJOURN_LIMIT_MS` and the
    server is not busier than the schedule is long (no growing backlog).
    """
    best = 0.0
    first = unit_arrivals[0]
    for rate in MODEL_RATES_QPS:
        free_at = 0.0
        sojourns = []
        for arrival, service in zip(unit_arrivals, service_seconds):
            due = (arrival - first) / rate
            free_at = max(due, free_at) + service
            sojourns.append(free_at - due)
        span = (unit_arrivals[len(sojourns) - 1] - first) / rate
        sojourns.sort()
        if (
            sum(service_seconds) <= span
            and percentile(sojourns, 95.0) * 1e3 <= MODEL_SOJOURN_LIMIT_MS
        ):
            best = rate
    return best


def measure_setup(workload: Workload, inputs: gen.Inputs) -> float:
    """Median seconds, at reference speed, of :data:`SETUP_REPEATS`
    engine constructions from the generated inputs; the slowdown of a
    construction is the mean of the ones measured before and after it."""
    samples = []
    gc.collect()
    after = calibration.slowdown()
    for _ in range(SETUP_REPEATS):
        before = after
        start = perf_counter()
        make_engine(workload.profile, inputs)
        seconds = perf_counter() - start
        gc.collect()
        after = calibration.slowdown()
        samples.append(seconds / ((before + after) / 2.0))
    return statistics.median(samples)


@dataclass
class EndToEnd:
    """What the e2e pass measured.

    Attributes:
        laps: The laps, in order; samples are pooled over them.
        auctions: Auctions the timed ops resolved, all laps.
        peak_rss_kb: The process's ``ru_maxrss`` after the first lap
            (so it does not depend on how many laps fit).
    """

    laps: List[Timed] = field(default_factory=list)
    auctions: int = 0
    peak_rss_kb: int = 0

    @property
    def first(self) -> Timed:
        return self.laps[0]

    @property
    def reference(self) -> List[float]:
        """Seconds per timed op at reference speed, all laps."""
        return [x for lap in self.laps for x in lap.reference]

    @property
    def wall(self) -> List[float]:
        return [x for lap in self.laps for x in lap.wall]

    @property
    def slowdowns(self) -> List[float]:
        return [x for lap in self.laps for x in lap.slowdowns]


def run_end_to_end(
    workload: Workload, first_inputs: gen.Inputs, seconds: float, tally: Tally
) -> EndToEnd:
    """Laps until ``seconds`` of wall time are used.

    After ``workload.min_laps``, another lap starts only while the time
    used plus half a lap still fits, so a lap sized to ``seconds`` runs
    once.  Lap ``k`` runs the seed's ``k``-th traffic draw.
    """
    e2e = EndToEnd()
    began = perf_counter()
    while True:
        lap_began = perf_counter()
        inputs = (
            first_inputs
            if not e2e.laps
            else generate_inputs(workload, first_inputs.seed, len(e2e.laps))
        )
        lap = closed_loop(Session.open(workload, inputs), workload, tally)
        e2e.laps.append(lap)
        if len(e2e.laps) == 1:
            e2e.peak_rss_kb = resource.getrusage(
                resource.RUSAGE_SELF
            ).ru_maxrss
        if workload.kind == "batch":
            e2e.auctions += sum(
                len(phrases)
                for phrases in inputs.rounds[workload.warm:][: workload.timed]
            )
        else:
            e2e.auctions += len(lap.wall)
        now = perf_counter()
        if (
            len(e2e.laps) >= workload.min_laps
            and now - began + (now - lap_began) / 2.0 >= seconds
        ):
            return e2e


def run_verify(
    workload: Workload,
    inputs: gen.Inputs,
    outcomes: Sequence[Optional[Outcome]],
    tally: Tally,
) -> None:
    """Replay the first ops through the object-layout reference."""
    oracle = make_engine(workload.oracle, inputs)
    if workload.kind == "batch":
        call, items = oracle.run_round, inputs.rounds
    else:
        # The serving differential suite pins serve_one to serve_query;
        # the oracle needs no latency recorder around it.
        call = oracle.serve_query
        items = [phrase for _, phrase in inputs.arrivals]
    reference = [
        round_outcome(call(items[index])) for index in range(workload.verify)
    ]
    tally.differing("the oracle", outcomes[: workload.verify], reference)
    tally.compared_with_oracle += len(reference)


@dataclass
class Traced:
    """What the trace pass recorded."""

    tracer: spans.Tracer
    collector: MetricsCollector
    lap: Timed
    open: Optional[OpenLoop] = None


def run_trace(
    workload: Workload,
    inputs: gen.Inputs,
    reference: Sequence[Optional[Outcome]],
    tally: Tally,
    spans_path: Optional[Path] = None,
) -> Traced:
    """One traced closed-loop lap, then (serving) the open-loop phase."""
    tracer = spans.Tracer()
    collector = MetricsCollector()
    with spans.installed(tracer):
        session = Session.open(workload, inputs, collector)
        lap = closed_loop(session, workload, tally, tracer)
    tally.differing("the untraced lap", lap.outcomes, reference)
    if spans_path is not None:
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write_jsonl(spans_path)
    traced = Traced(tracer, collector, lap)
    if workload.open_timed:
        traced.open, outcomes = open_loop(
            Session.open(workload, inputs), workload, tally
        )
        # Same trace on a fresh engine: outcomes must not depend on
        # when a query was served.
        tally.differing("the closed loop", outcomes, reference)
    return traced


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def end_to_end_metrics(
    workload: Workload, setup_s: float, e2e: EndToEnd
) -> Dict[str, float]:
    """The end-to-end metrics, times at reference speed.

    ``latency_ms_p50`` is the closed-loop time of one operation: a round
    for batch workloads, one served query for serving workloads.
    ``auctions_per_s`` is the auctions those operations resolved over
    their summed time (a served query resolves one auction).
    """
    return {
        "setup_s": setup_s,
        "latency_ms_p50": percentile(sorted(e2e.reference), 50.0) * 1e3,
        "auctions_per_s": e2e.auctions / sum(e2e.reference),
        "peak_rss_mb": e2e.peak_rss_kb / 1024.0,
    }


def _timed_samples(
    tracer: spans.Tracer, key: str, first_op: int
) -> List[float]:
    return [
        value for op, value in tracer.samples.get(key, ()) if op >= first_op
    ]


def per_layer_metrics(
    workload: Workload, inputs: gen.Inputs, e2e: EndToEnd, traced: Traced
) -> Dict[str, float]:
    """The per-layer metrics; a layer that never ran reads 0.

    Span seconds are scaled to reference speed by the traced lap's
    overall slowdown.
    """
    tracer = traced.tracer
    first, last = workload.warm, workload.warm + workload.timed - 1
    timed = spans.layer_totals(tracer.spans, first, last)
    setup = spans.layer_totals(tracer.spans, spans.SETUP_OP, spans.SETUP_OP)
    traced_window_s = sum(traced.lap.reference)
    to_reference = traced_window_s / sum(traced.lap.wall)
    stat_key = {"s": "busy", "self_s": "self", "calls": "calls"}
    metrics = {
        "budgets.outstanding_p50": 0.0,
        "budgets.outstanding_max": 0.0,
        "budgets.trivial_share": 0.0,
        "plans.merges_per_phrase": 0.0,
        "plans.reuse_share": 0.0,
        "sharedsort.sorted_accesses_per_phrase": 0.0,
        "serving.open.sojourn_ms_p50": 0.0,
        "serving.open.sojourn_ms_p95": 0.0,
        "serving.open.sojourn_ms_p99": 0.0,
        "serving.open.gen_lag_ms_max": 0.0,
        "serving.open.backlog_end": 0.0,
        "serving.model.max_rate_qps": 0.0,
    }
    for layer, stats in SPAN_STATS.items():
        totals = (setup if layer in SETUP_LAYERS else timed).get(layer)
        for stat in stats:
            value = totals[stat_key[stat]] if totals else 0.0
            metrics[f"{layer}.{stat}"] = (
                value if stat == "calls" else value * to_reference
            )

    outstanding = sorted(_timed_samples(tracer, "budgets.outstanding", first))
    if outstanding:
        metrics["budgets.outstanding_p50"] = percentile(outstanding, 50.0)
        metrics["budgets.outstanding_max"] = outstanding[-1]
    trivial = _timed_samples(tracer, "budgets.trivial", first)
    if trivial:
        metrics["budgets.trivial_share"] = sum(trivial) / len(trivial)
    metrics["engine.feed_drain.events"] = sum(
        _timed_samples(tracer, "engine.feed_drain.events", first)
    )
    phrases = sum(_timed_samples(tracer, "plans.phrases", first))
    if phrases:
        metrics["plans.merges_per_phrase"] = (
            sum(_timed_samples(tracer, "plans.merges", first)) / phrases
        )
    reused = traced.collector.counter(metric_names.PLAN_NODES_REUSED)
    invalidated = traced.collector.counter(metric_names.PLAN_NODES_INVALIDATED)
    if reused + invalidated:
        metrics["plans.reuse_share"] = reused / (reused + invalidated)
    accesses = _timed_samples(tracer, "sharedsort.sorted_accesses", first)
    if accesses:
        metrics["sharedsort.sorted_accesses_per_phrase"] = (
            sum(accesses) / len(accesses)
        )

    if traced.open is not None:
        sojourns = sorted(traced.open.sojourns())
        for p in (50.0, 95.0, 99.0):
            metrics[f"serving.open.sojourn_ms_p{p:.0f}"] = (
                percentile(sojourns, p) * 1e3
            )
        metrics["serving.open.gen_lag_ms_max"] = (
            max(traced.open.generator_lags()) * 1e3
        )
        metrics["serving.open.backlog_end"] = traced.open.backlog_end()
        metrics["serving.model.max_rate_qps"] = modelled_max_rate(
            e2e.first.reference,
            [t for t, _ in inputs.arrivals[workload.warm:][: workload.timed]],
        )
    metrics["trace.window_s"] = traced_window_s
    metrics["trace.overhead_share"] = (
        traced_window_s / sum(e2e.first.reference) - 1.0
    )
    metrics["latency_ms_tail"] = (
        percentile(sorted(e2e.reference), workload.tail) * 1e3
    )
    metrics["wall.latency_ms_p50"] = percentile(sorted(e2e.wall), 50.0) * 1e3
    metrics["wall.auctions_per_s"] = e2e.auctions / sum(e2e.wall)
    metrics["wall.slowdown"] = statistics.median(e2e.slowdowns)
    return metrics


@dataclass
class RunResult:
    """Everything one run of one workload reports."""

    workload: str
    seed: int
    inputs_sha256: str
    outcome_sha256: str
    tally: Tally
    laps: int
    samples: int
    metrics: Dict[str, float]

    @property
    def correct(self) -> bool:
        return self.tally.failed == 0 and self.tally.attempted > 0


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    verify: bool = True,
    pinned_sha256: Optional[str] = None,
    spans_path: Optional[Path] = None,
) -> RunResult:
    """Run one workload and report its end-to-end (``trace=False``) or
    per-layer (``trace=True``) metrics.

    Raises:
        RuntimeError: If ``pinned_sha256`` is given and the generated
            inputs do not hash to it -- before anything is timed.
    """
    inputs = generate_inputs(workload, seed)
    inputs_sha256 = inputs.sha256()
    if pinned_sha256 is not None and inputs_sha256 != pinned_sha256:
        raise RuntimeError(
            f"{workload.name}: inputs_sha256 {inputs_sha256} does not match "
            f"the pinned {pinned_sha256}; the workload itself changed"
        )
    tally = Tally()
    setup_s = measure_setup(workload, inputs)
    if trace:
        # A traced run needs one untraced lap to compare with, no more.
        workload, seconds = replace(workload, min_laps=1), 0.0
    e2e = run_end_to_end(workload, inputs, seconds, tally)
    if verify:
        run_verify(workload, inputs, e2e.first.outcomes, tally)
    if trace:
        traced = run_trace(
            workload, inputs, e2e.first.outcomes, tally, spans_path
        )
        metrics = per_layer_metrics(workload, inputs, e2e, traced)
    else:
        metrics = end_to_end_metrics(workload, setup_s, e2e)
    return RunResult(
        workload=workload.name,
        seed=seed,
        inputs_sha256=inputs_sha256,
        outcome_sha256=outcomes_sha256(e2e.first.outcomes),
        tally=tally,
        laps=len(e2e.laps),
        samples=sum(len(lap.wall) for lap in e2e.laps),
        metrics=metrics,
    )
