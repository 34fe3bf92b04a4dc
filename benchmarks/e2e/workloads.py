"""The five workloads, their engine profiles, and ``make_engine``.

A workload is a row of :data:`WORKLOADS`: which inputs it generates,
which engine profile resolves them, and how many operations one *lap*
runs.  A lap is a fresh engine, the warm-up operations, then the timed
operations; the cost of an operation depends on how far into a session
it falls (budgets drain, ledgers fill), so the size of a lap is fixed
and a longer ``--seconds`` runs more laps, each on its own traffic draw,
instead of longer ones.

Engine profiles are fixed by the workload (no knobs): all are
``layout="columnar"`` with the engine defaults (``throttle=True``,
``throttle_mode="exact"``, ``cache_verify=True``).  Every engine the
benchmark touches is built by :func:`make_engine`, so a
benchmark-correcting change has one place to edit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict

from repro.core.advertiser import Advertiser
from repro.engine import SharedAuctionEngine

import inputs as gen

PROFILES: Dict[str, Dict[str, object]] = {
    # The paper's Section II mechanism as PR 10 composed it.
    "shared": {"mode": "shared", "layout": "columnar", "exec_cache": True},
    # Section III; required by per-phrase CTRs.  No sort_cache: it
    # measured slower (33.6 vs 27.1 ms/round).
    "sort": {"mode": "shared-sort", "layout": "columnar"},
    # ROADMAP's "dumbest thing that works".
    "scan": {"mode": "unshared", "layout": "columnar"},
    # The uncached object-layout references the verify pass replays.
    "oracle": {"mode": "unshared", "layout": "object"},
    "oracle-sort": {"mode": "shared-sort", "layout": "object"},
}


@dataclass(frozen=True)
class Workload:
    """One row of the workload table.

    Attributes:
        name: The workload's name in ``BENCHMARK.json``.
        kind: ``"batch"`` (``run_round`` per op) or ``"serve"``
            (``ServingEngine.serve_one`` per op).
        profile: Key of :data:`PROFILES` the measured engine uses.
        oracle: Key of :data:`PROFILES` the verify pass replays through.
        components: Fig. 4 sub-markets in the market.
        budgets: Log-normal budgets (``False``: unlimited).
        phrase_ctrs: Per-(advertiser, phrase) CTR factors.
        warm: Untimed operations at the start of a lap.
        timed: Timed closed-loop operations of a lap.
        verify: Operations from the start of a lap that the verify pass
            replays through the oracle.
        tail: The tail percentile reported (a layer metric): the
            highest with at least ten samples beyond it in the laps of
            one end-to-end run.
        min_laps: Laps an end-to-end run makes however long they take.
        calibrate_every: Timed ops per run of the calibration kernel
            (about 1 ms): every op of a batch workload, every 25th
            query of a serving workload.
        open_rate_qps: Serving only: arrival rate of the open-loop
            phase of the trace pass, chosen for about 0.45 utilisation
            (the last quarter of a session costs 1.5x the first, and at
            1000 / 500 qps a slow spell of the box saturated it).
        open_timed: Serving only: timed open-loop queries (after the
            same ``warm``).
    """

    name: str
    kind: str
    profile: str
    oracle: str
    components: int
    budgets: bool
    phrase_ctrs: bool
    warm: int
    timed: int
    verify: int
    tail: float
    min_laps: int = 1
    calibrate_every: int = 1
    open_rate_qps: float = 0.0
    open_timed: int = 0

    @property
    def ops(self) -> int:
        """Operations to generate: the longest phase of a lap."""
        return self.warm + max(self.timed, self.open_timed)

    def smoke(self) -> "Workload":
        """The ``--smoke`` size: one component, a handful of ops."""
        batch = self.kind == "batch"
        return replace(
            self,
            components=1,
            warm=3 if batch else 50,
            timed=5 if batch else 200,
            verify=8 if batch else 250,
            tail=50.0 if batch else 95.0,
            open_timed=0 if batch else 200,
        )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # 17 warm rounds = click horizon + 1: the outstanding-ad books
        # are full when timing starts.  Two laps: a round's cost follows
        # which top bidders have drained their budgets, so one traffic
        # history moves the median by 9-24% between seeds.
        Workload("batch_debt", "batch", "shared", "oracle",
                 components=1, budgets=True, phrase_ctrs=False,
                 warm=17, timed=24, verify=25, tail=75.0, min_laps=2),
        Workload("batch_rank", "batch", "shared", "oracle",
                 components=8, budgets=False, phrase_ctrs=False,
                 warm=20, timed=200, verify=28, tail=95.0),
        Workload("batch_sort", "batch", "sort", "oracle-sort",
                 components=8, budgets=False, phrase_ctrs=True,
                 warm=20, timed=200, verify=28, tail=95.0),
        Workload("serve_scan", "serve", "scan", "oracle",
                 components=8, budgets=True, phrase_ctrs=False,
                 warm=500, timed=4000, verify=1000, tail=99.0,
                 calibrate_every=25, open_rate_qps=800.0, open_timed=3200),
        Workload("serve_shared", "serve", "shared", "oracle",
                 components=8, budgets=True, phrase_ctrs=False,
                 warm=500, timed=4000, verify=1000, tail=99.0,
                 calibrate_every=25, open_rate_qps=400.0, open_timed=1600),
    )
}


def generate_inputs(
    workload: Workload, seed: int, lap: int = 0
) -> gen.Inputs:
    """The workload's inputs for one lap of one traffic seed."""
    batch = workload.kind == "batch"
    return gen.generate(
        seed,
        lap,
        workload.components,
        workload.budgets,
        workload.phrase_ctrs,
        rounds=workload.ops if batch else 0,
        queries=0 if batch else workload.ops,
    )


def make_engine(
    profile: str, inputs: gen.Inputs, collector=None
) -> SharedAuctionEngine:
    """Build an engine of ``profile`` from generated inputs.

    The engine receives only the generated market, the common search
    rate, and the derived click seed; the traced pass adds an enabled
    ``repro.instrument`` collector.
    """
    advertisers = [
        Advertiser(
            advertiser_id,
            bid=bid_cents / 100.0,
            ctr_factor=ctr_factor,
            daily_budget=(
                float("inf") if budget_cents is None else budget_cents / 100.0
            ),
            phrases=frozenset(phrases),
            phrase_ctr_factors=dict(overrides),
        )
        for advertiser_id, bid_cents, ctr_factor, budget_cents, phrases, overrides
        in inputs.advertisers
    ]
    return SharedAuctionEngine(
        advertisers,
        gen.SLOT_FACTORS,
        {phrase: gen.SEARCH_RATE for phrase in inputs.phrases},
        seed=inputs.engine_seed,
        collector=collector,
        **PROFILES[profile],
    )
