"""The end-to-end shared winner-determination engine.

:class:`SharedAuctionEngine` is the full pipeline of the paper: phrases
are batched into rounds; per round, advertiser scores ``b̂_i * c_i`` are
formed (with Section IV throttling against outstanding ads), the
occurring phrases' top-(k+1) rankings are computed (through a shared
aggregation plan built offline by the Section II heuristic, the Section
III shared sort with the threshold algorithm, or independent per-phrase
scans), slots are allocated, clicks are priced with generalized second
pricing, displayed ads become outstanding debt, and simulated clicks
arrive with delay and are settled against budgets.

The engine ranks *k + 1* entries so generalized second pricing can see
the runner-up score without a second pass.
"""

from __future__ import annotations

import inspect
import random
from dataclasses import dataclass, field
from itertools import accumulate, chain
from time import perf_counter_ns
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.budgets.outstanding import check_display_arrays, check_displays
from repro.budgets.throttle import ThrottleProblem, exact_throttled_bid
from repro.core.advertiser import Advertiser
import numpy as np

# columnar_top_k is not called here: it stays a name of this module that
# benchmarks/e2e/spans.py patches.
from repro.core.columnar import ColumnarStore, columnar_top_k, columnar_top_k_picks
from repro.core.ctr import SeparableCTRModel
from repro.core.money import (
    check_bid_cents, checked_bid_update, dollars_to_cents,
)
from repro.engine.budget_manager import BudgetManager
from repro.engine.click_model import ClickRow, DelayedClickModel
from repro.engine.rounds import check_count
from repro.errors import InvalidAuctionError
from repro.instrument import NULL, Collector, names as metric_names
from repro.plans.columnar_exec import ColumnarFragmentExecutor
from repro.plans.instance import AggregateQuery, SharedAggregationInstance
from repro.sharedsort.columnar import ColumnarThresholdKernel, RankedRound

__all__ = ["SharedAuctionEngine", "EngineReport", "RoundReport"]

ARRAY_PRICING_MIN_SLOTS = 32
"""Slots in a round (phrases x k) from which the engine prices them as
arrays.  Measured, not tuned per workload: the array pass costs
about 27 us whatever its size plus 0.3 us a slot, the scalar loop 3 us
plus 1.1 us a slot, so they cross near 30 slots (near 38 with per-phrase
CTR factors; EXPERIMENTS E25 has both tables).  A served query (k slots)
is always below, a batch round of a dozen phrases or more above."""

BOOK_SYNC_ARRAY_MIN_MOVERS = 16
"""Advertisers whose books moved since the last scoring stage from which
their rows of the standing score columns are re-derived as arrays.
Measured, not tuned per workload: the array pass costs about 11 us
whatever its size plus 0.1 us a mover, the cell-by-cell loop 0.5 us plus
0.7 us a mover, so they cross near 18 movers (EXPERIMENTS E27 has the
table).  A served tick (a median of 6 movers) is below, a batch round
(25 to 190 movers on the benchmark's markets) above."""

STANDING_THROTTLE_CELL_LIMIT = 1 << 20
"""Cells of ``min(β, S_l)`` distribution the engine's kept throttle
problems may lay out between them (each counted as its
:attr:`repro.budgets.throttle.ThrottleProblem.array_cells`, built or
not): 16 MiB of arrays at 16 bytes a cell.  A constant, not a knob: the
benchmark's heaviest market keeps about 0.09 M cells.  A problem that
would not fit is scored and dropped, as every problem was before
problems were kept, until evictions make room."""

_STAGE_TIMERS = (
    metric_names.ENGINE_STAGE_DELIVER_TIMER,
    metric_names.ENGINE_STAGE_SCORE_TIMER,
    metric_names.ENGINE_STAGE_RANK_TIMER,
    metric_names.ENGINE_STAGE_ALLOCATE_TIMER,
)
"""The collector's timers for :attr:`RoundReport.stage_ns`, in order."""


@dataclass
class RoundReport:
    """Work and money counters for one round.

    Attributes:
        round_index: The round number.
        occurring_phrases: Phrases auctioned this round.
        merges: Top-k merge operations performed (shared mode), or
            rows presorted (shared-sort); 0 unshared and in
            :class:`repro.reference.ReferenceEngine`.
        scans: Advertiser entries scanned: leaf reads in shared mode,
            sorted accesses in shared-sort mode, full per-phrase scans
            in unshared mode and in every mode of the reference.
        revenue_cents: Click payments settled this round.
        forgiven_cents: Click value forgiven this round.
        displays: Ads displayed this round.
        clicks: Clicks that arrived this round.
        expired_ads: Outstanding ads discarded at the start of the round
            because their click probability had reached zero.
        debt_carriers_scored: Occurring advertisers with outstanding
            ads that needed an exact ``b̂`` from the scoring stage
            (:func:`repro.budgets.throttle.exact_throttled_bid`).  The
            engine first asks the O(1) liability quick test and counts
            only those it could not clear, whether their
            :class:`repro.budgets.throttle.ThrottleProblem` was built
            this round or kept from an earlier one; the reference builds
            one for every occurring debt carrier.  Stays 0 under
            ``throttle=False``.
        allocations: Per occurring phrase, the displayed ads as
            ``(slot, advertiser_id, price_cents)`` triples in slot
            order -- the round's full auction outcome, used by the
            differential tests to assert shared and unshared modes agree
            winner by winner.
        rows_scored, book_rows_synced: The rows stage 2 scored, and the
            standing-column rows it re-derived (books moved since).
        problems_rebuilt, rebuilt_cells, exact_bids: Of
            ``debt_carriers_scored``, the throttle problems stage 2
            built from the books and their ``array_cells`` summed, and
            those whose ``b̂`` the DP computed (a positive bid, not
            trivially unthrottled).  These five read 0 in the reference.
        counters: When the engine runs with an enabled collector, the
            collector's counter increments attributable to this round
            (zero deltas omitted); ``None`` otherwise.
        stage_ns: Wall nanoseconds of the four stages (deliver, score,
            rank, allocate), on every round; stages 2-4 read 0 without
            phrases, all four in the reference.  Not compared: equal
            runs never take equal time.
    """

    round_index: int
    occurring_phrases: Tuple[str, ...]
    merges: int = 0
    scans: int = 0
    revenue_cents: int = 0
    forgiven_cents: int = 0
    displays: int = 0
    clicks: int = 0
    expired_ads: int = 0
    debt_carriers_scored: int = 0
    allocations: Dict[str, Tuple[Tuple[int, int, int], ...]] = field(
        default_factory=dict
    )
    rows_scored: int = 0
    book_rows_synced: int = 0
    problems_rebuilt: int = 0
    rebuilt_cells: int = 0
    exact_bids: int = 0
    counters: Optional[Dict[str, int]] = None
    stage_ns: Tuple[int, int, int, int] = field(
        default=(0, 0, 0, 0), compare=False
    )


@dataclass
class EngineReport:
    """Aggregate counters over a whole run.

    Attributes:
        counters: Cumulative counter increments across all absorbed
            rounds when the engine ran with an enabled collector,
            ``None`` otherwise.
    """

    rounds: int = 0
    auctions: int = 0
    merges: int = 0
    scans: int = 0
    revenue_cents: int = 0
    forgiven_cents: int = 0
    displays: int = 0
    clicks: int = 0
    expired_ads: int = 0
    debt_carriers_scored: int = 0
    history: List[RoundReport] = field(default_factory=list)
    counters: Optional[Dict[str, int]] = None

    def absorb(self, report: RoundReport) -> None:
        """Fold one round's counters into the totals."""
        self.rounds += 1
        self.auctions += len(report.occurring_phrases)
        self.merges += report.merges
        self.scans += report.scans
        self.revenue_cents += report.revenue_cents
        self.forgiven_cents += report.forgiven_cents
        self.displays += report.displays
        self.clicks += report.clicks
        self.expired_ads += report.expired_ads
        self.debt_carriers_scored += report.debt_carriers_scored
        if report.counters is not None:
            if self.counters is None:
                self.counters = {}
            for name, value in report.counters.items():
                self.counters[name] = self.counters.get(name, 0) + value
        self.history.append(report)


class SharedAuctionEngine:
    """Round-based sponsored-search engine with shared winner determination.

    Args:
        advertisers: The advertiser population; phrase interests and CTR
            factors are read from each advertiser.
        slot_factors: The separable slot factors ``d_j`` (non-increasing);
            their count is the number of slots ``k``.
        search_rates: ``{phrase: sr_q}`` for every phrase that can occur,
            each in ``[0, 1]`` (anything else, NaN included, raises
            :class:`InvalidAuctionError`).  Phrases mentioned by
            advertisers but absent here default to rate 1.0.
        mode: How a round of several phrases is ranked: ``"shared"``
            through a greedy shared aggregation plan (Section II;
            requires phrase-independent CTR factors); ``"shared-sort"``
            through the Section III pipeline -- one shared sort of bids
            plus the threshold algorithm per phrase -- honoring
            per-phrase CTR factors
            (:attr:`Advertiser.phrase_ctr_factors`); ``"unshared"`` by
            a scan of each phrase's advertisers.  A round of one phrase
            (a served query) has nothing to share and is one scan in
            every mode, with ``c_i^q`` under ``"shared-sort"``.  Every mode
            keeps the population in a
            :class:`repro.core.columnar.ColumnarStore` and runs its
            mechanism as vectorized kernels over standing score columns.
            Outcomes are byte-identical to
            :class:`repro.reference.ReferenceEngine` in every mode (the
            differential suites assert it over 50 seeds).
        throttle: Apply Section IV bid throttling against outstanding
            ads: every occurring advertiser's exact ``b̂`` is computed
            before ranking.
        exec_cache: Shared mode only: keep ranking work alive between
            rounds of several phrases and recompute only what
            advertisers whose effective score changed invalidate (a
            round of one phrase never reaches it).  The
            :class:`repro.plans.columnar_exec.ColumnarFragmentExecutor`
            keeps fragment top-k rows and answers and finds the changed
            advertisers by diffing every scored row against the score
            it last absorbed.  Outcomes are bit-identical with and
            without the cache; only the work counters move.
        mean_click_delay_rounds: Mean click arrival delay.
        click_horizon_rounds: Rounds after which an unclicked ad expires.
        seed: Seed for phrase occurrence and click simulation.
        collector: Optional :class:`repro.instrument.Collector`.  When an
            enabled collector is supplied, the engine threads it through
            the ranking kernels, folds each round's report into it
            (``engine.*``, ``engine.stage.*`` from
            :attr:`RoundReport.stage_ns`, stage 2's ``columnar.*``), and
            attaches per-round counter deltas to
            :attr:`RoundReport.counters` and cumulative totals to
            :attr:`EngineReport.counters`.  ``None`` (the default) uses
            the shared no-op collector; the engine then does no metric
            bookkeeping beyond the report fields.

    Determinism contract: a fixed ``(advertisers, slot_factors,
    search_rates, mode, throttle, click delays, seed)`` tuple
    yields a bit-identical run -- same occurring phrases, allocations,
    prices, clicks, and work counters -- independent of process, platform,
    and ``PYTHONHASHSEED`` (all set/dict iteration feeding planning or
    sampling is explicitly sorted).  All randomness flows from the single
    ``random.Random(seed)`` shared by phrase sampling and the click
    model, so two engines in different modes stay draw-for-draw aligned
    exactly as long as their outcomes are identical -- which the
    differential tests assert they always are.
    """

    def __new__(cls, *args, layout: str = "columnar", **kwargs):
        """The last seam of the retired ``layout`` keyword.

        ``"columnar"`` (the default) is this engine.  ``"object"``
        returns the reference, :class:`repro.reference.ReferenceEngine`,
        built from the same arguments: it has no exec cache and counts
        nothing, so ``exec_cache=True`` or an enabled collector is
        refused and a disabled one dropped.  Anything else raises
        :class:`InvalidAuctionError`.  The seam exists for the frozen
        benchmark's verify pass, which still names its oracle
        ``layout="object"``; ROADMAP item 1a re-points that pass at the
        reference and deletes the seam.
        """
        if layout == "columnar":
            return super().__new__(cls)
        if layout != "object":
            raise InvalidAuctionError(f"unknown layout {layout!r}")
        # Imported here: repro.reference imports this module's reports.
        from repro.reference import ReferenceEngine

        arguments = inspect.signature(cls.__init__).bind(
            None, *args, **kwargs
        ).arguments
        del arguments["self"]
        collector = arguments.pop("collector", None)
        if collector is not None and collector.enabled:
            raise InvalidAuctionError("the reference takes no collector")
        if arguments.pop("exec_cache", False):
            raise InvalidAuctionError("the reference has no exec_cache")
        return ReferenceEngine(**arguments)

    def __init__(
        self,
        advertisers: Sequence[Advertiser],
        slot_factors: Sequence[float],
        search_rates: Mapping[str, float],
        mode: str = "shared",
        throttle: bool = True,
        exec_cache: bool = False,
        mean_click_delay_rounds: float = 2.0,
        click_horizon_rounds: int = 16,
        seed: int = 0,
        collector: Optional[Collector] = None,
        *,
        layout: str = "columnar",  # the seam: read by __new__ only
    ) -> None:
        if mode not in ("shared", "unshared", "shared-sort"):
            raise InvalidAuctionError(f"unknown engine mode {mode!r}")
        if exec_cache and mode != "shared":
            raise InvalidAuctionError(
                "exec_cache requires mode='shared' (the cross-round cache "
                "lives in the shared plan executor)"
            )
        self.advertisers = tuple(advertisers)
        self.mode = mode
        self.throttle = throttle
        self.exec_cache = exec_cache
        self.collector: Collector = collector if collector is not None else NULL
        self._by_id = {a.advertiser_id: a for a in self.advertisers}
        if len(self._by_id) != len(self.advertisers):
            raise InvalidAuctionError("duplicate advertiser ids")
        self.ctr_model = SeparableCTRModel(
            {a.advertiser_id: a.ctr_factor for a in self.advertisers},
            slot_factors,
        )
        self.k = len(tuple(slot_factors))
        store = self._store = ColumnarStore.from_advertisers(self.advertisers)
        # Read off the store's phrase index: phrases sorted, ids
        # ascending, whatever the string hashing (the plan's
        # tie-breaking, hence its work counters, reads this order).
        self.phrase_advertisers: Dict[str, Tuple[int, ...]] = {
            phrase: tuple(store.ids[store.phrase_rows(phrase)].tolist())
            for phrase in store.phrases()
        }
        self.search_rates: Dict[str, float] = {
            phrase: float(search_rates.get(phrase, 1.0))
            for phrase in self.phrase_advertisers
        }
        bad = {p: r for p, r in self.search_rates.items() if not 0.0 <= r <= 1.0}
        if bad:
            raise InvalidAuctionError(f"search rates must be in [0, 1]: {bad!r}")
        budgets = {
            a.advertiser_id: dollars_to_cents(a.daily_budget)
            for a in self.advertisers
            if a.daily_budget != float("inf")
        }
        self._rng = random.Random(seed)
        self.click_model = DelayedClickModel(
            mean_click_delay_rounds, click_horizon_rounds, self._rng
        )
        # A click arriving more than click_horizon_rounds after display
        # is never scheduled (DelayedClickModel drops it), so an
        # outstanding ad older than that can never be clicked and may
        # be discarded; +1 keeps an ad alive through the last round its
        # click can still arrive.  Unbounded books make the
        # Section IV exact throttle -- O(min(2^l, l*beta)) in the
        # outstanding count l -- grow per tick, turning long serving
        # sessions quadratic.
        self.budget_manager = BudgetManager(budgets, click_horizon_rounds + 1)
        self._columnar_exec = None
        self._columnar_sort = None
        # The engine indexes this store once (_by_id, the budget
        # manager's budgets, the standing columns below): an edit
        # under it must raise, not be half seen (set_bids excepted).
        for column in (store.bid_cents, store.ctr_factors, store.budget_cents):
            column.flags.writeable = False
        # Full-length scratch: the ranking stage scatters a round of
        # several phrases' effective bids / scores into row space, where
        # its backends index by row with no per-id lookups.  Rows
        # outside the round hold stale values by design -- kernels only
        # ever read the round's rows.
        self._eff_by_row = np.zeros(store.size, dtype=np.float64)
        self._score_by_row = np.zeros(store.size, dtype=np.float64)
        # m of a one-phrase round: a prefix of this.
        self._ones = np.ones(store.size, dtype=np.int64)
        self._ones.flags.writeable = False
        # The standing score columns (DESIGN.md section 6), one
        # cell per row whether it occurs or not: min(b, β), the quick
        # test's slack β - Σ outstanding prices, whether the row holds
        # ads, and the closed-form score (the closed-form bid is the
        # cap).  Nothing is spent or owed yet; _sync_book_columns
        # re-derives the rows of whoever the budget manager's books moved.
        self._cap_by_row = np.empty(store.size, dtype=np.int64)
        self._slack_by_row = np.empty(store.size, dtype=np.int64)
        self._carrying_by_row = np.empty(store.size, dtype=bool)
        self._base_score_by_row = np.empty(store.size, dtype=np.float64)
        self._derive_book_rows(slice(None), store.budget_cents, 0, False)
        # The standing Section IV distributions (DESIGN.md section
        # 6): the throttle problem of each debt carrier that failed
        # the quick test, as built when its books last moved, and
        # the cells they hold against STANDING_THROTTLE_CELL_LIMIT.
        self._standing_problems: Dict[int, ThrottleProblem] = {}
        self._standing_cells = 0
        # (m * cap) / m == cap bit for bit: the closed-form bid is cap.
        check_bid_cents(
            store.bid_cents.max(initial=0), len(self.phrase_advertisers)
        )
        self._slot_factors = np.asarray(
            self.ctr_model.slot_factors, dtype=np.float64
        )
        # A market with no bid phrases never reaches stages 2-4, so it
        # needs no plan (the planner refuses an empty instance).
        if mode == "shared" and self.phrase_advertisers:
            instance = SharedAggregationInstance(
                AggregateQuery(phrase, ids, self.search_rates[phrase])
                for phrase, ids in self.phrase_advertisers.items()
            )
            # The greedy plan's sharing structure collapses to fragment
            # row slices in array space; the plan DAG is never built.
            # With exec_cache the executor keeps the fragment top-k table
            # and the answers alive across rounds and rescans only
            # fragments touching a row whose score its own diff saw move
            # -- the DAG-node ancestor cone becomes two CSR gathers.
            self._columnar_exec = ColumnarFragmentExecutor(
                instance,
                self._store,
                self.k + 1,  # k + 1 so GSP can read the runner-up score.
                self.collector,
                cross_round=exec_cache,
            )
            # Phrases with identical advertiser sets are A-equivalent and
            # deduplicate to one plan query; map each phrase to the
            # surviving query's index in the executor.
            by_varset = {
                q.variables: q.name
                for q in instance.queries + instance.trivial_queries
            }
            self._query_of: Dict[str, int] = {
                phrase: self._columnar_exec.query_index(
                    by_varset[frozenset(ids)]
                )
                for phrase, ids in self.phrase_advertisers.items()
            }
        elif mode == "shared-sort":
            # One shared lexsort per round replaces the merge network;
            # per-phrase CTR presorts live in the store.
            self._columnar_sort = ColumnarThresholdKernel(
                self._store, self.k + 1, self.collector
            )
        self._round_index = 0

    # ------------------------------------------------------------------
    # round resolution
    # ------------------------------------------------------------------
    def sample_occurring_phrases(self) -> List[str]:
        """Draw this round's phrases: independent Bernoulli per phrase."""
        return [
            phrase
            for phrase in sorted(self.phrase_advertisers)
            if self._rng.random() < self.search_rates[phrase]
        ]

    def run_round(
        self, occurring: Optional[Iterable[str]] = None
    ) -> RoundReport:
        """Resolve one round end to end.

        Args:
            occurring: The phrases that occur; sampled from the search
                rates when omitted.

        Returns:
            The round's report.  With an enabled collector the report
            additionally carries the round's counter deltas in
            :attr:`RoundReport.counters`.
        """
        return self._rollup(lambda: self._resolve_round(occurring))

    def serve_query(self, phrase: str) -> RoundReport:
        """Resolve one query-at-a-time tick (the serving regime).

        Serving collapses the round to a single query: the tick delivers
        whatever clicks came due, scores only ``phrase``'s advertisers
        (auction multiplicity is always 1), ranks them by one scan of
        stage 2's arrays whatever the mode, and allocates.  The serving
        differential suite asserts this path is outcome-identical to
        ``run_round([phrase])``, which is what makes the query-at-a-time
        engine provably equivalent to the batch engine it grew out of.

        Args:
            phrase: The single bid phrase the query resolved to.

        Returns:
            The tick's report (``occurring_phrases`` holds one phrase).
        """
        return self._rollup(lambda: self._serve_query(phrase))

    def _rollup(self, resolve) -> RoundReport:
        """Run ``resolve`` and fold its report into the collector.

        Shared by the batch and serving entry points: with the null
        collector it is a single call, with an enabled collector it
        times the resolution, adds the report's fields to the counters
        and its ``stage_ns`` to the stage timers, and attaches the
        counter delta.
        """
        collector = self.collector
        if not collector.enabled:
            return resolve()
        snapshot = collector.snapshot()
        started = perf_counter_ns()
        report = resolve()
        collector.add_time(
            metric_names.ENGINE_ROUND_TIMER, (perf_counter_ns() - started) / 1e9
        )
        counts = [
            (metric_names.ENGINE_ROUNDS, 1),
            (metric_names.ENGINE_PHRASES, len(report.occurring_phrases)),
            (metric_names.ENGINE_DISPLAYS, report.displays),
            (metric_names.ENGINE_CLICKS, report.clicks),
            (metric_names.ENGINE_REVENUE_CENTS, report.revenue_cents),
            (metric_names.ENGINE_FORGIVEN_CENTS, report.forgiven_cents),
            (metric_names.ENGINE_EXPIRED_ADS, report.expired_ads),
            (metric_names.ENGINE_DEBT_CARRIERS_SCORED, report.debt_carriers_scored),
        ]
        stages = _STAGE_TIMERS[:1]
        if report.occurring_phrases:  # stages 2-4 ran
            stages = _STAGE_TIMERS
            counts += [
                (metric_names.COLUMNAR_SCORE_BATCHES, 1),
                (metric_names.COLUMNAR_SCORE_ROWS, report.rows_scored),
                (metric_names.COLUMNAR_BOOK_ROWS_SYNCED, report.book_rows_synced),
            ]
        for name, value in counts:
            collector.incr(name, value)
        for name, value in (
            (metric_names.COLUMNAR_THROTTLE_PROBLEMS_REBUILT, report.problems_rebuilt),
            (metric_names.THROTTLE_EXACT_FALLBACKS, report.exact_bids),
        ):
            if value:  # these two exist once they count something
                collector.incr(name, value)
        for name, nanoseconds in zip(stages, report.stage_ns):
            collector.add_time(name, nanoseconds / 1e9)
        report.counters = collector.delta_since(snapshot)
        collector.event(
            "engine.round",
            round_index=report.round_index,
            phrases=len(report.occurring_phrases),
            displays=report.displays,
            clicks=report.clicks,
            revenue_cents=report.revenue_cents,
        )
        return report

    def _resolve_round(
        self, occurring: Optional[Iterable[str]] = None
    ) -> RoundReport:
        """The round resolution without the rollup (see :meth:`run_round`)."""
        phrases = (
            sorted(occurring)
            if occurring is not None
            else self.sample_occurring_phrases()
        )
        unknown = [p for p in phrases if p not in self.phrase_advertisers]
        if unknown:
            # Rejected before it takes a round index: a bad request must
            # not shift the click-arrival and expiry rounds after it.
            raise InvalidAuctionError(f"no advertisers bid on {unknown!r}")
        if len(set(phrases)) != len(phrases):  # it would book twice
            raise InvalidAuctionError(f"a phrase repeats in {phrases!r}")
        round_index = self._round_index
        self._round_index += 1
        return self._resolve(tuple(phrases), round_index)

    def _serve_query(self, phrase: str) -> RoundReport:
        """The single-query tick without the rollup (see :meth:`serve_query`)."""
        if phrase not in self.phrase_advertisers:
            raise InvalidAuctionError(f"no advertisers bid on {[phrase]!r}")
        round_index = self._round_index
        self._round_index += 1
        return self._resolve((phrase,), round_index)

    def _resolve(
        self, phrases: Tuple[str, ...], round_index: int
    ) -> RoundReport:
        """The four stages over ``phrases`` (sorted): one sequence for a
        batch round and a served query."""
        report = RoundReport(round_index, phrases)
        start = perf_counter_ns()
        self._deliver_due_clicks(round_index, report)
        delivered = perf_counter_ns()
        if not phrases:
            report.stage_ns = (delivered - start, 0, 0, 0)
            return report
        scored = self._effective_scores(phrases, round_index, report)
        ranking = perf_counter_ns()
        rankings = self._rank_phrases(phrases, scored, report)
        allocating = perf_counter_ns()
        self._allocate_round(phrases, rankings, round_index, report)
        report.stage_ns = (
            delivered - start,
            ranking - delivered,
            allocating - ranking,
            perf_counter_ns() - allocating,
        )
        return report

    # ------------------------------------------------------------------
    # round stages (shared by batch rounds and query-at-a-time serving)
    # ------------------------------------------------------------------
    def _deliver_due_clicks(
        self, round_index: int, report: RoundReport
    ) -> None:
        """Stage 1: settle due clicks and expire outstanding ads."""
        revenue, forgiven, clicks = self._settle(
            self.click_model.arrivals(round_index)
        )
        report.revenue_cents += revenue
        report.forgiven_cents += forgiven
        report.clicks += clicks
        report.expired_ads = self.budget_manager.expire_outstanding(
            round_index
        )

    def _settle(self, clicks: Sequence[ClickRow]) -> Tuple[int, int, int]:
        """Settle delivered clicks against the books, as one batch.

        Returns:
            ``(revenue_cents, forgiven_cents, clicks)`` totals.
        """
        return (*self.budget_manager.settle_clicks(clicks), len(clicks))

    def _sync_book_columns(self) -> int:
        """Bring the standing score columns up to the manager's books.

        Every display, settlement and expiry goes through the budget
        manager (stages 1 and 4, :meth:`settle_remaining_clicks` and a
        caller booking on ``engine.budget_manager`` alike), which
        remembers whom it moved; only their rows are re-derived, from
        ``β`` and the running liability.  A served tick moves
        a handful of advertisers, written cell by cell; from
        :data:`BOOK_SYNC_ARRAY_MIN_MOVERS` up the same arithmetic runs
        as array operations behind one ``rows_of``.

        Returns:
            The number of rows re-derived.
        """
        changes = self.budget_manager.drain_book_changes()
        movers = len(changes[0])
        store = self._store
        standing = self._standing_problems
        if standing:
            # A kept throttle problem is its advertiser's books as they
            # stood when it was built.
            for advertiser_id in standing.keys() & changes[0]:
                self._standing_cells -= standing.pop(advertiser_id).array_cells
        if movers < BOOK_SYNC_ARRAY_MIN_MOVERS:
            row_of = store.row_of
            bid_cents = store.bid_cents.item
            ctr_factor = store.ctr_factors.item
            # Bound once: the columns' attribute reads were a third of a
            # served tick's sync.
            cap_by_row, slack_by_row, carrying_by_row, score_by_row = (
                self._cap_by_row, self._slack_by_row, self._carrying_by_row,
                self._base_score_by_row,
            )
            for advertiser_id, beta, owed, carrying in zip(*changes):
                row = row_of(advertiser_id)
                cap = min(bid_cents(row), beta)
                cap_by_row[row] = cap
                slack_by_row[row] = beta - owed
                carrying_by_row[row] = carrying
                score_by_row[row] = cap / 100.0 * ctr_factor(row)
        else:
            ids, beta, owed, carrying = np.array(changes, dtype=np.int64)
            self._derive_book_rows(store.rows_of(ids), beta, owed, carrying)
        return movers

    def _derive_book_rows(self, rows, beta, owed, carrying) -> None:
        """Write the standing cells of ``rows`` from their books: remaining
        budget, outstanding liability, whether any ad is outstanding."""
        store = self._store
        cap = np.minimum(store.bid_cents[rows], beta)
        self._cap_by_row[rows] = cap
        self._slack_by_row[rows] = beta - owed
        self._carrying_by_row[rows] = carrying
        self._base_score_by_row[rows] = cap / 100.0 * store.ctr_factors[rows]

    def set_bids(self, ids: Sequence[int], bid_cents: Sequence[int]) -> None:
        """Move bids (integer cents) between rounds or served ticks: the
        batch is checked whole (:func:`repro.core.money.checked_bid_update`)
        before the moved rows and their standing cells are rewritten."""
        ids, bid_cents = checked_bid_update(
            ids, bid_cents, self._by_id, len(self.phrase_advertisers)
        )
        rows = self._store.rows_of(ids)
        column = self._store.bid_cents
        column.flags.writeable = True
        column[rows] = bid_cents
        column.flags.writeable = False
        books = self.budget_manager
        self._derive_book_rows(rows, *np.array([
            [books.remaining_cents(i) for i in ids],
            [books.liability_cents(i) for i in ids],
            [i in books.debt_carriers for i in ids],
        ], dtype=np.int64))

    def _effective_scores(
        self, phrases: Sequence[str], round_index: int, report: RoundReport
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Stage 2: ``(rows, b̂, score)``, the round's rows (ascending)
        with each one's effective bid ``b̂_i`` and score ``b̂_i * c_i``,
        and the report's sizes of the stage (``rows_scored`` to
        ``exact_bids``, ``debt_carriers_scored``).

        Bit-identical to the reference's exact stage.  Section IV's
        quick test ``ω_l <= β - m·b`` says when the throttled bid is simply
        ``float(min(b, β))`` -- what :func:`exact_throttled_bid` returns
        for a trivially unthrottled problem, and what the no-debt
        closed form ``min(m·cap, β) / m`` divides out to, exactly, when
        ``m·cap <= β`` (``m·cap < 2**53``).  That bid and its score
        stand in row space (:meth:`_sync_book_columns`), so a round
        gathers them for its rows and asks the test as ``m·cap >
        slack``, with the books' running liability (an upper bound on
        ``ω_l``) inside ``slack``: no block is read for it.  Only rows
        that fail leave the closed form -- without outstanding ads
        ``min(m·cap, β) / m`` as array operations (``β`` is their
        ``slack``), with ads through :func:`exact_throttled_bid` one by
        one, as the reference does; its array DP is per problem
        because the problems are ragged (DESIGN.md section 6).  The
        problem is the budget manager's, built from its blocks, the
        first time and whenever the advertiser's books have moved since
        (:meth:`_sync_book_columns` evicts); in between it is the kept
        one asked again for this round's ``(bid, m)``, its ``min(β,
        S_l)`` array standing (DESIGN.md section 6).
        ``throttle=False`` is the same gathers with the test never
        asked.  One phrase (a served tick) and many differ only in how
        the round's rows and multiplicities ``m`` are found.
        """
        store = self._store
        report.book_rows_synced = self._sync_book_columns()
        rows, m = self._round_rows(phrases)
        report.rows_scored = len(rows)
        cap = self._cap_by_row[rows]
        effective_sub = cap.astype(np.float64)
        score_sub = self._base_score_by_row[rows]
        if self.throttle:
            slack = self._slack_by_row[rows]
            failed = (m * cap > slack).nonzero()[0]
            if len(failed):
                failed_rows = rows[failed]
                m_failed = m[failed]
                # A row without outstanding ads owes nothing: its slack
                # is β.  A row with ads is overwritten below.
                effective_failed = (
                    np.minimum(m_failed * cap[failed], slack[failed]) / m_failed
                )
                carrying = self._carrying_by_row[failed_rows].nonzero()[0]
                manager = self.budget_manager
                standing = self._standing_problems
                # A problem answers for, and is kept from, only a round
                # whose outstanding ads are those of every other such
                # round: no block dead yet.
                keeping = round_index < manager.earliest_dead_round
                for at, advertiser_id, bid_cents, auctions in zip(
                    carrying.tolist(),
                    store.ids[failed_rows[carrying]].tolist(),
                    store.bid_cents[failed_rows[carrying]].tolist(),
                    m_failed[carrying].tolist(),
                ):
                    problem = standing.get(advertiser_id) if keeping else None
                    if problem is not None:
                        # The re-asked problem replaces the kept one: it
                        # may be the first to take the array route.
                        problem = standing[advertiser_id] = problem.asked_again(
                            min(bid_cents, problem.budget_cents), auctions
                        )
                    else:
                        problem = manager.throttle_problem(
                            advertiser_id, bid_cents, auctions, round_index
                        )
                        cells = problem.array_cells
                        report.problems_rebuilt += 1
                        report.rebuilt_cells += cells
                        cells += self._standing_cells
                        if keeping and cells <= STANDING_THROTTLE_CELL_LIMIT:
                            standing[advertiser_id] = problem
                            self._standing_cells = cells
                    if problem.bid_cents > 0 and not problem.trivially_unthrottled():
                        report.exact_bids += 1
                    effective_failed[at] = exact_throttled_bid(problem)
                effective_sub[failed] = effective_failed
                score_sub[failed] = (
                    effective_failed / 100.0 * store.ctr_factors[failed_rows]
                )
                report.debt_carriers_scored = len(carrying)
        return rows, effective_sub, score_sub

    def _round_rows(
        self, phrases: Sequence[str]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The round's rows (ascending) and each one's auction
        multiplicity ``m_i``: in how many of ``phrases`` it is a member.

        One phrase is its view of the store's phrase CSR, each ``m_i``
        1; more are one compress of the CSR's cells
        (:meth:`ColumnarStore.phrase_cells`) counted by row.
        """
        store = self._store
        if len(phrases) == 1:
            rows = store.phrase_rows(phrases[0])
            return rows, self._ones[: len(rows)]
        _, cells = store.phrase_cells(store.phrase_positions(phrases))
        counts = np.bincount(store.cell_rows[cells], minlength=store.size)
        rows = np.flatnonzero(counts)
        return rows, counts[rows]

    def _rank_phrases(
        self,
        phrases: Sequence[str],
        scored: Tuple[np.ndarray, np.ndarray, np.ndarray],
        report: RoundReport,
    ) -> RankedRound:
        """Stage 3: every phrase's top-(k+1), as the flat arrays stage 4
        prices (:class:`RankedRound`).

        The backend is chosen by the phrase count.  A round of one phrase
        -- a served tick, or ``run_round([p])`` -- has nothing to share
        and in every mode is one scan of stage 2's arrays, with
        ``c = c_i^q`` under ``"shared-sort"``: the fragment executor and
        the Section III kernel neither run nor see it.  A round of more
        phrases is scattered into row space and ranked by the mode's
        backend: the shared plan's fragment executor, the Section III
        round kernel, or a scan per phrase.
        """
        k = self.k + 1
        store = self._store
        rows, bids, scores = scored
        if len(phrases) == 1:
            if self.mode == "shared-sort":
                c = store.phrase_ctr(phrases[0])
                # Same operation order as rank_round: (cents / 100.0) * c.
                scores = bids / 100.0 * c
            else:
                c = store.ctr_factors[rows]
            report.scans += len(rows)
            # Rows ascend with the id, so they rank as the ids do.
            picks = columnar_top_k_picks(k, scores, rows, self.collector)
            return RankedRound(
                phrases, k, np.array([len(picks)], np.int64), scores[picks],
                store.ids[rows[picks]], c[picks], bids[picks],
            )
        self._eff_by_row[rows] = bids
        self._score_by_row[rows] = scores
        if self.mode == "shared":
            # In cross-round mode the executor diffs the occurring rows'
            # scores against the ones it last absorbed.
            result = self._columnar_exec.answer(
                self._score_by_row,
                np.fromiter(
                    map(self._query_of.__getitem__, phrases),
                    np.int64,
                    len(phrases),
                ),
                rows=rows,
            )
            report.merges += result.merges_performed
            report.scans += result.advertisers_scanned
            return self._ranked_round(
                phrases, result.lens, result.scores, result.rows
            )
        if self.mode == "shared-sort":
            kernel = self._columnar_sort
            # The shared presort materializes every occurring row once;
            # it is reported as the round's merges.
            report.merges += kernel.begin_round(self._eff_by_row, rows)
            ranked, sorted_accesses = kernel.rank_round(phrases)
            report.scans += int(sorted_accesses.sum())
            return ranked
        by_row = self._score_by_row
        members = [store.phrase_rows(phrase) for phrase in phrases]
        report.scans += sum(map(len, members))
        # Rows ascend with the id, so they rank as the ids do.
        picked = [
            rows[columnar_top_k_picks(k, by_row[rows], rows, self.collector)]
            for rows in members
        ]
        rows = np.concatenate(picked)
        return self._ranked_round(
            phrases,
            np.fromiter(map(len, picked), np.int64, len(picked)),
            by_row[rows],
            rows,
        )

    def _ranked_round(self, phrases, lens, scores, rows) -> RankedRound:
        """Stage 3's hand-off from row space: ``c = c_i`` read off the
        store's column, ``b̂`` off the round's scatter."""
        store = self._store
        return RankedRound(
            phrases, self.k + 1, lens, scores, store.ids[rows],
            store.ctr_factors[rows], self._eff_by_row[rows],
        )

    def _allocate_round(
        self,
        phrases: Sequence[str],
        rankings: RankedRound,
        round_index: int,
        report: RoundReport,
    ) -> None:
        """Stage 4: allocate slots, price clicks (GSP), book the displays.

        The round is the unit: every occurring phrase's slots are priced
        first, and the batch is checked once
        (:func:`repro.budgets.outstanding.check_displays`, as arrays on
        the array route); then the displayed ads are booked as
        outstanding debt in one call to the budget manager and handed to
        the click model in one call (each the unchecked internal of its
        ``record_displays``), in (phrase, slot) order -- the click
        model's draws from the shared ``random.Random`` are the only
        part that has to stay sequential.
        The slot arithmetic has two routes over the same
        :class:`RankedRound` arrays that agree bit for bit:
        :meth:`_price_slots`, one array pass over the round, which a
        round takes from :data:`ARRAY_PRICING_MIN_SLOTS` slots up, and
        :meth:`_allocate_phrase`, the scalar loop over one phrase's span
        of them, which a round below the crossover takes -- a served
        tick among them.
        """
        if len(phrases) * self.k >= ARRAY_PRICING_MIN_SLOTS:
            shown, slots, ids, prices, ctrs = self._price_slots(
                phrases, rankings
            )
        else:
            columns = [
                column.tolist()
                for column in (
                    rankings.ids, rankings.bids, rankings.scores, rankings.c
                )
            ]
            ends = list(accumulate(rankings.lens.tolist()))
            per_phrase = [
                self._allocate_phrase(
                    *(column[start:end] for column in columns)
                )
                for start, end in zip([0] + ends, ends)
            ]
            shown = [len(ads) for ads in per_phrase]
            flat = list(chain.from_iterable(per_phrase))
            slots, ids, prices, ctrs = zip(*flat) if flat else ((), (), (), ())
            check_displays(prices, ctrs)
        # Checked once above, for the books and the click model alike.
        handles = self.budget_manager._record_displays(
            ids, prices, ctrs, round_index
        )
        self.click_model._record_displays(
            round_index, ids, prices, ctrs, handles
        )
        allocated = list(zip(slots, ids, prices))
        start = 0
        for phrase, end in zip(phrases, accumulate(shown)):
            report.allocations[phrase] = tuple(allocated[start:end])
            start = end
        report.displays += len(ids)

    def _allocate_phrase(
        self,
        ids: List[int],
        bids: List[float],
        scores: List[float],
        c: List[float],
    ) -> List[Tuple[int, int, int, float]]:
        """Stage 4, scalar arithmetic: one phrase's displayed ads, from
        the advertiser ids, effective bids ``b̂``, scores and ``c`` of its
        ranked entries, best first.

        Returns:
            ``(slot, advertiser_id, price_cents, ctr)`` per displayed
            ad, in slot order.
        """
        slot_factors = self.ctr_model.slot_factors
        allocated: List[Tuple[int, int, int, float]] = []
        for slot in range(min(self.k, len(ids))):
            c_i = c[slot]
            if scores[slot] <= 0.0 or c_i <= 0.0:
                continue
            next_score = scores[slot + 1] if slot + 1 < len(scores) else 0.0
            price = int(round(min(bids[slot], next_score / c_i * 100.0)))
            if price <= 0:
                continue
            ctr = min(1.0, c_i * slot_factors[slot])
            allocated.append((slot, ids[slot], price, ctr))
        return allocated

    def _price_slots(
        self, phrases: Sequence[str], rankings: RankedRound
    ) -> Tuple[List[int], List[int], List[int], List[int], List[float]]:
        """Stage 4, array arithmetic: the whole round's displayed ads.

        Works on every phrase's ranked entries laid end to end with
        their ``b̂`` and CTR factors, as stage 3's backends hand them
        over (:attr:`RankedRound.arrays`).  Every slot is priced in
        :meth:`_allocate_phrase`'s exact operation order -- ``next / c *
        100.0``, ``min``, then ``np.rint``, which rounds half to even as
        Python's ``round`` does -- so the prices agree bit for bit.  What
        the scalar loop skips (``score <= 0``, ``c <= 0``, ``price <=
        0``) is masked.

        Returns:
            ``(shown, slots, ids, prices, ctrs)``: displayed ads per
            phrase, then one row per displayed ad in (phrase, slot)
            order.
        """
        # The arrays are in stage 3's phrase order; the caller books
        # `shown` against its own.
        assert rankings.phrases == tuple(phrases)
        lens, scores, ids, c, bids = rankings.arrays
        ends = np.cumsum(lens)
        total = int(ends[-1])
        phrase_at = np.repeat(np.arange(len(lens)), lens)
        slot = np.arange(total) - (ends - lens)[phrase_at]
        # The runner-up is the next entry of the same phrase; the last
        # entry of a phrase has none.
        next_score = np.zeros(total, dtype=np.float64)
        next_score[:-1] = scores[1:]
        next_score[ends[lens > 0] - 1] = 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            price = np.rint(np.minimum(bids, next_score / c * 100.0))
        at = np.flatnonzero(
            (slot < self.k) & (scores > 0.0) & (c > 0.0) & (price > 0.0)
        )
        slots = slot[at]
        prices = price[at].astype(np.int64)
        ctrs = np.minimum(1.0, c[at] * self._slot_factors[slots])
        check_display_arrays(prices, ctrs)
        return (
            np.bincount(phrase_at[at], minlength=len(lens)).tolist(),
            slots.tolist(),
            ids[at].tolist(),
            prices.tolist(),
            ctrs.tolist(),
        )

    def settle_remaining_clicks(self) -> Tuple[int, int, int]:
        """Flush the click model and settle every still-pending click.

        The flush settles outside any round; the next scoring stage
        picks the moved books up (:meth:`_sync_book_columns`).  Shared
        by the batch :meth:`run` loop and the end of a serving session.

        Returns:
            ``(revenue_cents, forgiven_cents, clicks)`` totals.
        """
        return self._settle(self.click_model.flush())

    def run(self, rounds: int) -> EngineReport:
        """Run several rounds, then flush and settle remaining clicks."""
        check_count("rounds", rounds)
        report = EngineReport()
        for _ in range(rounds):
            report.absorb(self.run_round())
        revenue, forgiven, clicks = self.settle_remaining_clicks()
        report.revenue_cents += revenue
        report.forgiven_cents += forgiven
        report.clicks += clicks
        return report
