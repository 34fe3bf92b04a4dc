"""Canonical counter, gauge, and timer names.

Every instrumented module draws its metric names from this table so
tests, benchmarks, and exports agree on spelling.  The names map onto
the paper's work accounting as follows:

========================  ==================================================
name                      meaning (paper reference)
========================  ==================================================
``plan.nodes``            operator nodes materialized by the plan executor
                          per the Section II-B cost model
                          ``sum_v (1 - prod_q (1 - sr_q))``; on sr=1
                          instances the per-round average equals
                          :func:`repro.plans.cost.expected_plan_cost`
                          exactly.
``plan.merges``           binary top-k merges performed (one per
                          materialized operator node).
``plan.cache_hits``       round-memo hits: a node requested again within
                          the round after materialization (sharing paying
                          off inside one round).
``plan.cache_misses``     round-memo misses (first materialization of a
                          node in a round, leaves included).
``plan.leaf_scans``       advertiser leaf values read by operator nodes
                          (the shoe-store example's 470-vs-270 scan
                          bookkeeping).
``plan.node_merges``      *keyed* counter: merges per plan node id.
``plan.pairs_scored``     candidate pair unions whose greedy coverage
                          gain the planner actually computed.
``plan.pairs_skipped_lazy``  union scorings the lazy planner served from
                          its heap instead of recomputing (the naive
                          full rescan would have recomputed each).
``plan.covers_computed``  greedy set-cover/partition runs performed
                          while planning.
``plan.covers_memo_hits``  cover requests served from the lazy planner's
                          per-(query, candidate-generation) memo.
``plan.nodes_reused``     fragment top-k lists the columnar exec cache
                          served without a rescan (no member's score
                          moved) -- the per-round work cross-round
                          reuse amortizes away.
``plan.nodes_invalidated``  cached fragments newly invalidated by a
                          round's dirty rows (first sights and rows
                          whose score moved).
``plan.revalidations``    re-aggregations the columnar exec cache
                          skipped because none of a query's fragments
                          changed since it was last answered (its
                          cached answer is handed back).
``plan.candidates_gathered``  ``(score, id)`` candidates the columnar
                          fragment executor handed to
                          :func:`repro.core.columnar.segmented_top_k_picks`
                          (member rows of refreshed fragments plus
                          table cells of re-aggregated queries) -- the
                          kernel's unit of work; zero on a round that
                          replays every answer.
``topk.scans``            phrases ranked by a scan: one per
                          ``top_k_scan`` call, per served tick and per
                          phrase of the engine's round scan.
``topk.scan_entries``     entries those scans consumed -- the
                          Section II-A unshared baseline's work.
``topk.merges``           :func:`repro.core.topk.top_k_merge` calls made
                          with an enabled collector.
``sort.leaf_reads``       advertiser bids read from the store by the
                          Section III merge network (sequential accesses).
``sort.operator_pulls``   items produced by on-demand merge operators --
                          the full-sort cost model's unit of work.
``sort.cache_replays``    stream reads served from an operator's output
                          cache with zero child pulls (sharing across
                          phrases paying off).
``sort.node_pulls``       *keyed* counter: pulls per shared-sort plan node
                          (assembly operators keyed by phrase).
``sort.batch_pulls``      batched stream reads issued through
                          :meth:`SortStream.items` (one per call; the
                          per-item engine would have issued one read per
                          returned item instead).
``sort.batched_items``    items returned by batched stream reads; the
                          ratio to ``sort.batch_pulls`` is the realized
                          amortization factor.
``sort.pairs_scored``     expected-savings evaluations performed by the
                          shared-sort plan builder (every same-size pair
                          every merge round under the naive builder;
                          only touched pairs under the lazy builder).
``sort.savings_memo_hits``  savings requests the lazy builder served from
                          its ``(size, phrase-mask)`` memo instead of
                          recomputing.
``ta.runs``               threshold-algorithm invocations
                          (:mod:`repro.sharedsort.threshold` and the
                          columnar kernel; no engine mode runs TA).
``ta.sorted_accesses``    Section III sorted accesses across both lists.
``ta.random_accesses``    random-access score resolutions.
``ta.stages``             total stages executed; the gauge
                          ``ta.stop_depth`` holds the depth at which the
                          most recent run stopped.
``throttle.exact_fallbacks``  non-trivial exact b̂ computations in the
                          engine's scoring stage -- the Section IV
                          problem was not trivially unthrottled, so
                          the ``O(min(2^l, l·β))`` DP/enumeration ran
                          (or, for a kept columnar problem, its standing
                          ``min(β, S_l)`` array was asked again).
``columnar.score_batches``  vectorized scoring batches executed by the
                          columnar engine (one per round with occurring
                          phrases).
``columnar.score_rows``   occurring rows scored per vectorized batch --
                          the engine's unit of scoring work,
                          comparable to one reference advertiser loop
                          iteration each.
``columnar.book_rows_synced``  rows of the standing score columns the
                          columnar engine re-derived before scoring: the
                          advertisers whose books a display, settlement
                          or expiry moved since the previous batch (the
                          tick's dirty rows; every other occurring row
                          is read, not computed).
``columnar.throttle_problems_rebuilt``  of
                          ``engine.debt_carriers_scored``, those whose
                          throttle problem the columnar scorer built
                          from the books -- a first sight, or books
                          that moved since the advertiser was last
                          scored.
                          The rest were answered off the kept problem
                          and its standing ``min(β, S_l)`` array:
                          ``1 - rebuilt / debt_carriers_scored`` is the
                          kept share.
``engine.rounds``         rounds resolved by the engine.
``engine.phrases``        phrase auctions resolved.
``engine.displays``       ads displayed.
``engine.clicks``         clicks settled *within rounds*.
``engine.revenue_cents``  click payments charged within rounds.  The
                          end-of-run flush of still-pending clicks
                          (:meth:`SharedAuctionEngine.run`) settles
                          outside any round and is reported on
                          :class:`EngineReport` only, so a short run's
                          ``EngineReport.revenue_cents`` can exceed this
                          counter.
``engine.forgiven_cents`` click value forgiven (over-budget clicks),
                          within rounds -- same flush caveat as revenue.
``engine.expired_ads``    outstanding ads discarded because their click
                          probability reached zero (popped from the
                          budget manager's expiry queue at the start of
                          a round or tick).
``engine.debt_carriers_scored``  occurring debt carriers that needed
                          an exact ``b̂`` from the scoring stage
                          (``RoundReport.debt_carriers_scored``;
                          on the engine those the O(1)
                          liability quick test could not clear).  With
                          ``engine.expired_ads`` it says whether a slow
                          tick was slow in the books.
``engine.stage.deliver``  *timer*: stage 1 of a round or tick -- due
                          clicks settled as one batch, then outstanding
                          ads expired.
``engine.stage.score``    *timer*: stage 2 -- effective bids and scores
                          of the occurring advertisers (Section IV
                          throttle).
``engine.stage.rank``     *timer*: stage 3 -- the occurring phrases'
                          top-(k + 1) through the shared plan, the
                          shared sort + threshold algorithm or scans.
``engine.stage.allocate`` *timer*: stage 4 -- slots priced for the
                          whole round, displays booked in one
                          ``record_displays`` call, clicks drawn.  The
                          four are the rollup of
                          ``RoundReport.stage_ns``, which the engine
                          measures on every round, collector or not;
                          they add up to ``engine.round_seconds`` less
                          the phrase checks.
``serve.queries``         queries resolved by the serving loop
                          (:class:`repro.serving.ServingEngine`) -- one
                          per query-at-a-time tick.
``serve.query_seconds``   *timer*: each query's
                          ``QueryReport.latency_seconds`` (the serving
                          loop's clock around
                          :meth:`SharedAuctionEngine.serve_query`).
``serve.p50_ms``          *gauge*: exact nearest-rank median query
                          latency of the most recent serving session,
                          milliseconds.
``serve.p99_ms``          *gauge*: exact nearest-rank 99th-percentile
                          query latency, milliseconds.
``serve.qps``             *gauge*: sustained service throughput of the
                          session (queries / busy seconds).
========================  ==================================================

Wall-clock-derived serving figures are gauges, never counters: the
serving determinism test asserts that two identical serving runs record
identical *counters*, and latency cannot be part of that contract.
"""

from __future__ import annotations

__all__ = [
    "PLAN_NODES",
    "PLAN_MERGES",
    "PLAN_CACHE_HITS",
    "PLAN_CACHE_MISSES",
    "PLAN_LEAF_SCANS",
    "PLAN_NODE_MERGES",
    "PLAN_CANDIDATES_GATHERED",
    "PLAN_PAIRS_SCORED",
    "PLAN_PAIRS_SKIPPED_LAZY",
    "PLAN_COVERS_COMPUTED",
    "PLAN_COVERS_MEMO_HITS",
    "PLAN_NODES_REUSED",
    "PLAN_NODES_INVALIDATED",
    "PLAN_REVALIDATIONS",
    "TOPK_SCANS",
    "TOPK_SCAN_ENTRIES",
    "TOPK_MERGES",
    "SORT_LEAF_READS",
    "SORT_OPERATOR_PULLS",
    "SORT_CACHE_REPLAYS",
    "SORT_NODE_PULLS",
    "SORT_BATCH_PULLS",
    "SORT_BATCHED_ITEMS",
    "SORT_PAIRS_SCORED",
    "SORT_SAVINGS_MEMO_HITS",
    "TA_RUNS",
    "TA_SORTED_ACCESSES",
    "TA_RANDOM_ACCESSES",
    "TA_STAGES",
    "TA_STOP_DEPTH",
    "THROTTLE_EXACT_FALLBACKS",
    "COLUMNAR_SCORE_BATCHES",
    "COLUMNAR_SCORE_ROWS",
    "COLUMNAR_BOOK_ROWS_SYNCED",
    "COLUMNAR_THROTTLE_PROBLEMS_REBUILT",
    "ENGINE_ROUNDS",
    "ENGINE_PHRASES",
    "ENGINE_DISPLAYS",
    "ENGINE_CLICKS",
    "ENGINE_REVENUE_CENTS",
    "ENGINE_FORGIVEN_CENTS",
    "ENGINE_EXPIRED_ADS",
    "ENGINE_DEBT_CARRIERS_SCORED",
    "ENGINE_ROUND_TIMER",
    "ENGINE_STAGE_DELIVER_TIMER",
    "ENGINE_STAGE_SCORE_TIMER",
    "ENGINE_STAGE_RANK_TIMER",
    "ENGINE_STAGE_ALLOCATE_TIMER",
    "SERVE_QUERIES",
    "SERVE_QUERY_TIMER",
    "SERVE_P50_MS",
    "SERVE_P99_MS",
    "SERVE_QPS",
]

# Shared-plan executor (Section II).
PLAN_NODES = "plan.nodes"
PLAN_MERGES = "plan.merges"
PLAN_CACHE_HITS = "plan.cache_hits"
PLAN_CACHE_MISSES = "plan.cache_misses"
PLAN_LEAF_SCANS = "plan.leaf_scans"
PLAN_NODE_MERGES = "plan.node_merges"
PLAN_CANDIDATES_GATHERED = "plan.candidates_gathered"

# Greedy planner work accounting (Section II-D heuristic).
PLAN_PAIRS_SCORED = "plan.pairs_scored"
PLAN_PAIRS_SKIPPED_LAZY = "plan.pairs_skipped_lazy"
PLAN_COVERS_COMPUTED = "plan.covers_computed"
PLAN_COVERS_MEMO_HITS = "plan.covers_memo_hits"

# Cross-round reuse (the columnar exec cache).
PLAN_NODES_REUSED = "plan.nodes_reused"
PLAN_NODES_INVALIDATED = "plan.nodes_invalidated"
PLAN_REVALIDATIONS = "plan.revalidations"

# Top-k primitives (Section II-A).
TOPK_SCANS = "topk.scans"
TOPK_SCAN_ENTRIES = "topk.scan_entries"
TOPK_MERGES = "topk.merges"

# Shared on-demand merge-sort (Section III-B).
SORT_LEAF_READS = "sort.leaf_reads"
SORT_OPERATOR_PULLS = "sort.operator_pulls"
SORT_CACHE_REPLAYS = "sort.cache_replays"
SORT_NODE_PULLS = "sort.node_pulls"
SORT_BATCH_PULLS = "sort.batch_pulls"
SORT_BATCHED_ITEMS = "sort.batched_items"

# Shared-sort plan builder work accounting (Section III-C greedy).
SORT_PAIRS_SCORED = "sort.pairs_scored"
SORT_SAVINGS_MEMO_HITS = "sort.savings_memo_hits"

# Threshold algorithm (Section III-A).
TA_RUNS = "ta.runs"
TA_SORTED_ACCESSES = "ta.sorted_accesses"
TA_RANDOM_ACCESSES = "ta.random_accesses"
TA_STAGES = "ta.stages"
TA_STOP_DEPTH = "ta.stop_depth"

# Section IV throttling (exact b̂ in the scoring stage).
THROTTLE_EXACT_FALLBACKS = "throttle.exact_fallbacks"

# Columnar (struct-of-arrays) kernels.
COLUMNAR_SCORE_BATCHES = "columnar.score_batches"
COLUMNAR_SCORE_ROWS = "columnar.score_rows"
COLUMNAR_BOOK_ROWS_SYNCED = "columnar.book_rows_synced"
COLUMNAR_THROTTLE_PROBLEMS_REBUILT = "columnar.throttle_problems_rebuilt"

# Engine rollups.
ENGINE_ROUNDS = "engine.rounds"
ENGINE_PHRASES = "engine.phrases"
ENGINE_DISPLAYS = "engine.displays"
ENGINE_CLICKS = "engine.clicks"
ENGINE_REVENUE_CENTS = "engine.revenue_cents"
ENGINE_FORGIVEN_CENTS = "engine.forgiven_cents"
ENGINE_EXPIRED_ADS = "engine.expired_ads"
ENGINE_DEBT_CARRIERS_SCORED = "engine.debt_carriers_scored"
ENGINE_ROUND_TIMER = "engine.round_seconds"
ENGINE_STAGE_DELIVER_TIMER = "engine.stage.deliver"
ENGINE_STAGE_SCORE_TIMER = "engine.stage.score"
ENGINE_STAGE_RANK_TIMER = "engine.stage.rank"
ENGINE_STAGE_ALLOCATE_TIMER = "engine.stage.allocate"

# Query-at-a-time serving loop.
SERVE_QUERIES = "serve.queries"
SERVE_QUERY_TIMER = "serve.query_seconds"
SERVE_P50_MS = "serve.p50_ms"
SERVE_P99_MS = "serve.p99_ms"
SERVE_QPS = "serve.qps"
