"""Spans recorded from outside the program, and the per-layer metrics.

The traced pass wraps the public entry points of each ``src/repro``
layer *from the benchmark's own files*: class methods are patched on the
class, module functions are rebound in the namespace of each module that
imported them by name.  :func:`installed` restores every patched
attribute in a ``finally``.  Spans inside the program
(``engine.stage.*``) are a later change.

A span is ``(id, parent, op, name, start, end, calls, busy)`` on
``time.perf_counter``: one *call path* within one benchmark operation.
``parent`` is the span of the enclosing wrapped call (``0``, the pass
itself, for an operation's outermost call) and ``op`` the index of the
operation.  Calls that reach the same wrapped name through the same
chain of enclosing spans within one operation share a span: ``start`` is
the first call's start, ``end`` the last call's end, ``calls`` their
number and ``busy`` their summed duration.  A round's 2 800 feed
publishes under ``record_display`` are therefore one record, and keeping
the record of every call apart cost 1 us of allocation per call, which
doubled the wall time of ``batch_rank``.  Spans stay in memory and are
written as JSON-lines when the pass ends.  A span's self time is its
``busy`` minus its children's.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.budgets.outstanding import OutstandingLedger
from repro.budgets.throttle import ThrottleProblem
from repro.core.columnar import ColumnarStore
from repro.engine.budget_manager import BudgetManager
from repro.engine.changefeed import ChangeFeed, Subscription
from repro.engine.click_model import DelayedClickModel
from repro.engine.pipeline import SharedAuctionEngine
from repro.plans.columnar_exec import ColumnarFragmentExecutor
from repro.serving.loop import ServingEngine
from repro.sharedsort.columnar import ColumnarThresholdKernel

import repro.engine.pipeline as pipeline_module
import repro.plans.columnar_exec as columnar_exec_module
import repro.sharedsort.columnar as sharedsort_columnar_module

# Span record field indices.
ID, PARENT, OP, NAME, START, END, CALLS, BUSY, _CHILDREN = range(9)
FIELDS = ("id", "parent", "op", "name", "start", "end", "calls", "busy")

SETUP_OP = -1
"""``op`` of spans recorded while an engine is being built."""


class Tracer:
    """Collects spans and the few counts taken at the same boundaries.

    Attributes:
        spans: Span records, indexed by span id.  Span 0 is the pass
            itself, the parent of every operation's outermost span.
        op: The operation index stamped on new spans (see
            :meth:`begin_op`).
        samples: Values observed on wrapped calls' arguments or results
            (outstanding-ad counts, merges, events drained, ...), as
            ``{key: [(op, value), ...]}``.
    """

    def __init__(self) -> None:
        now = perf_counter()
        self._root = [0, -1, SETUP_OP, "pass", now, now, 1, 0.0, {}]
        self.spans: List[list] = [self._root]
        self.op = SETUP_OP
        self.samples: Dict[str, List[Tuple[int, float]]] = {}
        self._stack: List[list] = [self._root]

    def begin_op(self, index: int) -> None:
        """Start operation ``index``: its call paths get fresh spans."""
        self.op = index
        self._root[_CHILDREN] = {}

    def close(self) -> None:
        """End the pass: the root span covers everything recorded."""
        self._root[END] = perf_counter()
        self._root[BUSY] = self._root[END] - self._root[START]

    def wrap(
        self,
        name: Optional[str],
        fn: Callable,
        observe: Optional[Callable[["Tracer", tuple, object], None]] = None,
    ) -> Callable:
        """``fn`` wrapped in a span called ``name``.

        Args:
            name: The span's name; ``None`` records no span and only
                observes.
            observe: Called as ``observe(tracer, args, result)`` after a
                call that returned, outside the span.
        """
        if name is None:
            def observed(*args, **kwargs):
                result = fn(*args, **kwargs)
                observe(self, args, result)
                return result

            return observed
        spans = self.spans
        stack = self._stack
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1]
            record = parent[_CHILDREN].get(name)
            if record is None:
                record = [
                    len(spans), parent[ID], tracer.op, name, 0.0, 0.0, 0, 0.0, {}
                ]
                spans.append(record)
                parent[_CHILDREN][name] = record
            stack.append(record)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if not record[CALLS]:
                    record[START] = start
                record[END] = end
                record[CALLS] += 1
                record[BUSY] += end - start
            if observe is not None:
                observe(tracer, args, result)
            return result

        return traced

    def sample(self, key: str, value: float) -> None:
        """Record one observed value for the current operation."""
        self.samples.setdefault(key, []).append((self.op, value))

    def write_jsonl(self, path) -> None:
        """One JSON object per span, in id order."""
        self.close()
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(dict(zip(FIELDS, record))))
                handle.write("\n")


# ----------------------------------------------------------------------
# what is wrapped
# ----------------------------------------------------------------------
def _observe_problem(tracer: Tracer, args: tuple, problem) -> None:
    tracer.sample("budgets.outstanding", len(problem.outstanding))


def _observe_trivial(tracer: Tracer, args: tuple, trivial) -> None:
    tracer.sample("budgets.trivial", 1.0 if trivial else 0.0)


def _observe_drain(tracer: Tracer, args: tuple, events) -> None:
    tracer.sample("engine.feed_drain.events", len(events))


def _observe_plan_round(tracer: Tracer, args: tuple, result) -> None:
    # args = (executor, score_by_row, names, ...)
    tracer.sample("plans.merges", result.merges_performed)
    tracer.sample("plans.phrases", len(args[2]))


def _observe_rank_phrase(tracer: Tracer, args: tuple, result) -> None:
    tracer.sample("sharedsort.sorted_accesses", result[1])


# (owner, attribute, span name, observer).  A module owner means "the
# name this consumer module imported"; a class owner means the method.
TARGETS: Tuple[Tuple[object, str, Optional[str], Optional[Callable]], ...] = (
    (pipeline_module, "exact_throttled_bid", "budgets.exact_bid", None),
    (ThrottleProblem, "trivially_unthrottled", None, _observe_trivial),
    (OutstandingLedger, "snapshot", "budgets.ledger_snapshot", None),
    (OutstandingLedger, "prune", "budgets.ledger_prune", None),
    (BudgetManager, "expire_outstanding", "engine.expire_outstanding", None),
    (BudgetManager, "outstanding_counts", "engine.outstanding_counts", None),
    (BudgetManager, "spent_snapshot", "engine.spent_snapshot", None),
    (BudgetManager, "throttle_problem", "engine.throttle_problem",
     _observe_problem),
    (BudgetManager, "settle_click", "engine.settle_click", None),
    (BudgetManager, "record_display", "engine.record_display", None),
    (DelayedClickModel, "record_display", "engine.record_display", None),
    (DelayedClickModel, "arrivals", "engine.click_arrivals", None),
    (ChangeFeed, "publish", "engine.feed_publish", None),
    (Subscription, "drain", "engine.feed_drain", _observe_drain),
    (SharedAuctionEngine, "run_round", "engine.op", None),
    (SharedAuctionEngine, "serve_query", "engine.op", None),
    (ColumnarFragmentExecutor, "run_round", "plans.run_round",
     _observe_plan_round),
    (ColumnarFragmentExecutor, "__init__", "plans.init", None),
    (columnar_exec_module, "top_k_merge", "core.top_k_merge", None),
    (columnar_exec_module, "columnar_top_k", "core.columnar_top_k", None),
    (sharedsort_columnar_module, "columnar_top_k", "core.columnar_top_k", None),
    (pipeline_module, "columnar_top_k", "core.columnar_top_k", None),
    (ColumnarStore, "from_advertisers", "core.store_build", None),
    (ColumnarThresholdKernel, "begin_round", "sharedsort.begin_round", None),
    (ColumnarThresholdKernel, "rank_phrase", "sharedsort.rank_phrase",
     _observe_rank_phrase),
    (ColumnarThresholdKernel, "__init__", "sharedsort.init", None),
    (ServingEngine, "serve_one", "serving.serve_one", None),
)


@contextmanager
def installed(tracer: Tracer) -> Iterator[None]:
    """Install every wrapper of :data:`TARGETS`; restore them on exit.

    The original is read from the owner's ``__dict__`` (so a
    ``classmethod`` object is kept as such) and put back by identity,
    also when the body raises.
    """
    originals = []
    try:
        for owner, attribute, name, observe in TARGETS:
            original = vars(owner)[attribute]
            originals.append((owner, attribute, original))
            if isinstance(original, classmethod):
                wrapper: object = classmethod(
                    tracer.wrap(name, original.__func__, observe)
                )
            else:
                wrapper = tracer.wrap(name, original, observe)
            setattr(owner, attribute, wrapper)
        yield
    finally:
        for owner, attribute, original in originals:
            setattr(owner, attribute, original)


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
def layer_totals(
    spans: List[list], first_op: int, last_op: int
) -> Dict[str, Dict[str, float]]:
    """Per span name over ops ``first_op..last_op``: ``busy`` seconds,
    ``self`` seconds (busy minus children's busy) and ``calls``."""
    totals: Dict[str, Dict[str, float]] = {}
    child_busy = [0.0] * len(spans)
    for record in spans[1:]:
        child_busy[record[PARENT]] += record[BUSY]
    for record in spans[1:]:
        if not first_op <= record[OP] <= last_op:
            continue
        entry = totals.setdefault(
            record[NAME], {"busy": 0.0, "self": 0.0, "calls": 0}
        )
        entry["busy"] += record[BUSY]
        entry["self"] += record[BUSY] - child_busy[record[ID]]
        entry["calls"] += record[CALLS]
    return totals
