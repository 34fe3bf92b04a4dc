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

import random
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.budgets.outstanding import ClickDecayModel, NoDecay
from repro.budgets.throttle import ThrottleProblem, exact_throttled_bid
from repro.core.advertiser import Advertiser
from repro.core.columnar import (
    ArrayScoreMap,
    ColumnarStore,
    columnar_top_k,
    columnar_top_k_picks,
    require_numpy,
)
from repro.core.ctr import SeparableCTRModel
from repro.core.money import dollars_to_cents
from repro.core.topk import ScoredAdvertiser, TopKList, top_k_scan
from repro.engine.budget_manager import BudgetManager
from repro.engine.click_model import ClickRow, DelayedClickModel
from repro.errors import InvalidAuctionError
from repro.instrument import NULL, Collector, names as metric_names
from repro.plans.instance import AggregateQuery, SharedAggregationInstance
from repro.sharedsort.columnar import ColumnarThresholdKernel, RankedRound

try:  # pragma: no cover - numpy ships with the package
    import numpy as np
except ImportError:  # pragma: no cover
    np = None  # type: ignore[assignment]

__all__ = ["SharedAuctionEngine", "EngineReport", "RoundReport"]

ARRAY_PRICING_MIN_SLOTS = 32
"""Slots in a round (phrases x k) from which the columnar layout prices
them as arrays.  Measured, not tuned per workload: the array pass costs
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
"""Cells of ``min(β, S_l)`` distribution the columnar layout's kept
throttle problems may lay out between them (each counted as its
:attr:`repro.budgets.throttle.ThrottleProblem.array_cells`, built or
not): 16 MiB of arrays at 16 bytes a cell.  A constant, not a knob: the
benchmark's heaviest market keeps about 0.09 M cells.  A problem that
would not fit is scored and dropped, as every problem was before
problems were kept, until evictions make room."""

def _timed(collector: Collector, timer_name: str, stage: Callable) -> Callable:
    """``stage`` with each call accumulated under ``timer_name``."""

    def timed_stage(*args):
        with collector.timer(timer_name):
            return stage(*args)

    return timed_stage


@dataclass
class RoundReport:
    """Work and money counters for one round.

    Attributes:
        round_index: The round number.
        occurring_phrases: Phrases auctioned this round.
        merges: Top-k merge operations performed (shared mode), or
            rows presorted (shared-sort); 0 on the object layout.
        scans: Advertiser entries scanned: leaf reads in shared mode,
            sorted accesses in shared-sort mode, full per-phrase scans
            in unshared mode and in every mode on the object layout.
        revenue_cents: Click payments settled this round.
        forgiven_cents: Click value forgiven this round.
        displays: Ads displayed this round.
        clicks: Clicks that arrived this round.
        expired_ads: Outstanding ads discarded at the start of the round
            because their click probability had reached zero.
        debt_carriers_scored: Occurring advertisers with outstanding
            ads that needed an exact ``b̂`` from the scoring stage
            (:func:`repro.budgets.throttle.exact_throttled_bid`).  The
            columnar layout first asks the O(1) liability quick test and
            counts only those it could not clear, whether their
            :class:`repro.budgets.throttle.ThrottleProblem` was built
            this round or kept from an earlier one; the object layout
            builds one for every occurring debt carrier.  Stays 0 under
            ``throttle=False``.
        allocations: Per occurring phrase, the displayed ads as
            ``(slot, advertiser_id, price_cents)`` triples in slot
            order -- the round's full auction outcome, used by the
            differential tests to assert shared and unshared modes agree
            winner by winner.
        counters: When the engine runs with an enabled collector, the
            collector's counter increments attributable to this round
            (zero deltas omitted); ``None`` otherwise.
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
    counters: Optional[Dict[str, int]] = None


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
        search_rates: ``{phrase: sr_q}`` for every phrase that can occur.
            Phrases mentioned by advertisers but absent here default to
            rate 1.0.
        mode: ``"shared"`` resolves rounds through a greedy shared
            aggregation plan (Section II; requires phrase-independent
            CTR factors); ``"shared-sort"`` runs the Section III
            pipeline -- one shared sort of bids plus the threshold
            algorithm per phrase -- honoring per-phrase CTR factors
            (:attr:`Advertiser.phrase_ctr_factors`); ``"unshared"``
            scans each phrase's advertisers independently.  The mode's
            mechanism runs only on ``layout="columnar"``.
        layout: ``"columnar"`` (default) keeps the population in a
            :class:`repro.core.columnar.ColumnarStore` and runs the
            mode's mechanism as vectorized kernels; requires numpy.
            ``"object"`` is the reference it is checked against: stage 2
            solves Section IV exactly for every occurring advertiser,
            and in every mode each phrase is ranked by one scan of
            ``b̂_i * c`` (``c = c_i^q`` under ``"shared-sort"``, ``c_i``
            otherwise) -- Sections II and III are exact top-(k+1)
            mechanisms, so that scan is their auction.  It builds no
            plan, sort network or store.  Outcomes are byte-identical
            between layouts (the layout differential suite asserts it
            over 50 seeds); only the work counters move.
        throttle: Apply Section IV bid throttling against outstanding
            ads: every occurring advertiser's exact ``b̂`` is computed
            before ranking.
        exec_cache: Shared mode on ``layout="columnar"`` only: keep
            ranking work alive between rounds and recompute only what
            advertisers whose effective score changed invalidate.  The
            :class:`repro.plans.columnar_exec.ColumnarFragmentExecutor`
            keeps fragment top-k rows and answers and finds the changed
            advertisers by diffing every scored row against the score
            it last absorbed.  Outcomes are bit-identical with and
            without the cache; only the work counters move.
        decay: Click-decay model for outstanding ads.
        mean_click_delay_rounds: Mean click arrival delay.
        click_horizon_rounds: Rounds after which an unclicked ad expires.
        seed: Seed for phrase occurrence and click simulation.
        collector: Optional :class:`repro.instrument.Collector`.  When an
            enabled collector is supplied, the engine threads it through
            the ranking kernels, times its four stages
            (``engine.stage.*``), flushes ``engine.*`` rollups, and attaches
            per-round counter deltas to :attr:`RoundReport.counters` and
            cumulative totals to :attr:`EngineReport.counters`.  ``None``
            (the default) uses the shared no-op collector; the engine
            then does no metric bookkeeping beyond the report fields.

    Determinism contract: a fixed ``(advertisers, slot_factors,
    search_rates, mode, throttle, decay, click delays, seed)`` tuple
    yields a bit-identical run -- same occurring phrases, allocations,
    prices, clicks, and work counters -- independent of process, platform,
    and ``PYTHONHASHSEED`` (all set/dict iteration feeding planning or
    sampling is explicitly sorted).  All randomness flows from the single
    ``random.Random(seed)`` shared by phrase sampling and the click
    model, so two engines in different modes stay draw-for-draw aligned
    exactly as long as their outcomes are identical -- which the
    differential tests assert they always are.
    """

    def __init__(
        self,
        advertisers: Sequence[Advertiser],
        slot_factors: Sequence[float],
        search_rates: Mapping[str, float],
        mode: str = "shared",
        layout: str = "columnar",
        throttle: bool = True,
        exec_cache: bool = False,
        decay: Optional[ClickDecayModel] = None,
        mean_click_delay_rounds: float = 2.0,
        click_horizon_rounds: int = 16,
        seed: int = 0,
        collector: Optional[Collector] = None,
    ) -> None:
        if mode not in ("shared", "unshared", "shared-sort"):
            raise InvalidAuctionError(f"unknown engine mode {mode!r}")
        if layout not in ("object", "columnar"):
            raise InvalidAuctionError(f"unknown layout {layout!r}")
        if layout == "columnar":
            require_numpy()
        if exec_cache and mode != "shared":
            raise InvalidAuctionError(
                "exec_cache requires mode='shared' (the cross-round cache "
                "lives in the shared plan executor)"
            )
        if exec_cache and layout != "columnar":
            raise InvalidAuctionError(
                "exec_cache requires layout='columnar' (the cross-round "
                "cache is the columnar fragment executor's)"
            )
        self.advertisers = tuple(advertisers)
        self.mode = mode
        self.layout = layout
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
        phrase_map: Dict[str, List[int]] = {}
        for advertiser in self.advertisers:
            # Iterate phrases sorted: frozenset order depends on string
            # hashing, and letting it leak into dict build order would
            # make plan tie-breaking (hence work counters) vary with
            # PYTHONHASHSEED.  Outcomes were never affected; the plan
            # *shape* was.
            for phrase in sorted(advertiser.phrases):
                phrase_map.setdefault(phrase, []).append(
                    advertiser.advertiser_id
                )
        self.phrase_advertisers: Dict[str, Tuple[int, ...]] = {
            phrase: tuple(sorted(ids))
            for phrase, ids in sorted(phrase_map.items())
        }
        self.search_rates: Dict[str, float] = {
            phrase: float(search_rates.get(phrase, 1.0))
            for phrase in self.phrase_advertisers
        }
        budgets = {
            a.advertiser_id: dollars_to_cents(a.daily_budget)
            for a in self.advertisers
            if a.daily_budget != float("inf")
        }
        # A click arriving more than click_horizon_rounds after display
        # is never scheduled (DelayedClickModel drops it), so an
        # outstanding ad older than that can never be clicked and may
        # be discarded; +1 keeps an ad alive through the last round its
        # click can still arrive.  An unbounded default ledger makes the
        # Section IV exact throttle -- O(min(2^l, l*beta)) in the
        # outstanding count l -- grow per tick, turning long serving
        # sessions quadratic.
        decay_model = (
            decay
            if decay is not None
            else NoDecay(horizon=click_horizon_rounds + 1)
        )
        self.budget_manager = BudgetManager(budgets, decay_model)
        self._rng = random.Random(seed)
        self.click_model = DelayedClickModel(
            mean_click_delay_rounds, click_horizon_rounds, self._rng
        )
        self._columnar_exec = None
        self._columnar_sort = None
        self._store: Optional[ColumnarStore] = None
        if layout == "columnar":
            store = self._store = ColumnarStore.from_advertisers(
                self.advertisers
            )
            # The engine indexes this store once (_by_id, the budget
            # manager's budgets, the standing columns below): an edit
            # under it must raise, not be half seen.  A renumbering
            # replaces store.ids, which stage 2 checks.
            for column in (
                store.bids, store.bid_cents, store.ctr_factors,
                store.budget_cents,
            ):
                column.flags.writeable = False
            self._store_ids = store.ids
            # Full-length scratch: the scoring stage scatters the round's
            # effective bids / scores into row space so every downstream
            # kernel indexes by row with no per-id lookups.  Rows outside
            # the round's occurring set hold stale values by design --
            # kernels only ever read occurring rows.
            self._eff_by_row = np.zeros(store.size, dtype=np.float64)
            self._score_by_row = np.zeros(store.size, dtype=np.float64)
            self._occurring_rows = None
            # m of a one-phrase round: a prefix of this.
            self._ones = np.ones(store.size, dtype=np.int64)
            self._ones.flags.writeable = False
            # The standing score columns (DESIGN.md section 21), one
            # cell per row whether it occurs or not: min(b, β), the quick
            # test's slack β - Σ outstanding prices, whether the row holds
            # ads, and the closed-form bid and score.  Nothing is spent
            # or owed yet; _sync_book_columns re-derives the rows of
            # whoever the budget manager's books moved.
            self._cap_by_row = np.empty(store.size, dtype=np.int64)
            self._slack_by_row = np.empty(store.size, dtype=np.int64)
            self._carrying_by_row = np.empty(store.size, dtype=bool)
            self._base_bid_by_row = np.empty(store.size, dtype=np.float64)
            self._base_score_by_row = np.empty(store.size, dtype=np.float64)
            self._derive_book_rows(slice(None), store.budget_cents, 0, False)
            # The standing Section IV distributions (DESIGN.md section
            # 22): the throttle problem of each debt carrier that failed
            # the quick test, as built when its books last moved, and
            # the cells they hold against STANDING_THROTTLE_CELL_LIMIT.
            self._standing_problems: Dict[int, ThrottleProblem] = {}
            self._standing_cells = 0
            # m * cap stays an exact float64, so (m * cap) / m == cap bit
            # for bit: the closed form may be stored instead of divided.
            widest = len(self.phrase_advertisers)
            assert int(store.bid_cents.max(initial=0)) * widest < 2**53
            self._slot_factors = np.asarray(
                self.ctr_model.slot_factors, dtype=np.float64
            )
        if mode == "shared" and layout == "columnar":
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
            from repro.plans.columnar_exec import ColumnarFragmentExecutor

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
        elif mode == "shared-sort" and layout == "columnar":
            # One shared lexsort per round replaces the merge network;
            # per-phrase CTR presorts live in the store.
            self._columnar_sort = ColumnarThresholdKernel(
                self._store, self.k + 1, self.collector
            )
        self._round_index = 0
        if self.collector.enabled:
            # engine.stage.* timers: each stage method is rebound on
            # this instance to a timed wrapper, so the null collector's
            # path stays the plain method calls of _resolve.
            for stage, timer_name in (
                ("_deliver_due_clicks", metric_names.ENGINE_STAGE_DELIVER_TIMER),
                ("_effective_scores", metric_names.ENGINE_STAGE_SCORE_TIMER),
                ("_rank_phrases", metric_names.ENGINE_STAGE_RANK_TIMER),
                ("_allocate_round", metric_names.ENGINE_STAGE_ALLOCATE_TIMER),
            ):
                setattr(
                    self,
                    stage,
                    _timed(self.collector, timer_name, getattr(self, stage)),
                )

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
        (auction multiplicity is always 1), ranks the one phrase through
        the configured machinery, and allocates.  The serving
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
        """Run ``resolve`` with the engine-level counter rollup.

        Shared by the batch and serving entry points: with the null
        collector it is a single call, with an enabled collector it
        times the resolution and attaches the counter delta.
        """
        collector = self.collector
        if not collector.enabled:
            return resolve()
        snapshot = collector.snapshot()
        with collector.timer(metric_names.ENGINE_ROUND_TIMER):
            report = resolve()
        collector.incr(metric_names.ENGINE_ROUNDS)
        collector.incr(metric_names.ENGINE_PHRASES, len(report.occurring_phrases))
        collector.incr(metric_names.ENGINE_DISPLAYS, report.displays)
        collector.incr(metric_names.ENGINE_CLICKS, report.clicks)
        collector.incr(metric_names.ENGINE_REVENUE_CENTS, report.revenue_cents)
        collector.incr(metric_names.ENGINE_FORGIVEN_CENTS, report.forgiven_cents)
        collector.incr(metric_names.ENGINE_EXPIRED_ADS, report.expired_ads)
        collector.incr(
            metric_names.ENGINE_DEBT_CARRIERS_SCORED,
            report.debt_carriers_scored,
        )
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
        """The uninstrumented round resolution (see :meth:`run_round`)."""
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
        """The uninstrumented single-query tick (see :meth:`serve_query`)."""
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
        self._deliver_due_clicks(round_index, report)
        if phrases:
            scores, effective_bid_cents = self._effective_scores(
                phrases, round_index, report
            )
            rankings = self._rank_phrases(
                phrases, scores, effective_bid_cents, report
            )
            self._allocate_round(
                phrases, rankings, effective_bid_cents, round_index, report
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

    def _effective_scores(
        self, phrases: Sequence[str], round_index: int, report: RoundReport
    ) -> Tuple[Mapping[int, float], Mapping[int, float]]:
        """Stage 2: effective scores ``b̂_i * c_i`` for the occurring set.

        Sets ``report.debt_carriers_scored``.

        Returns:
            ``(scores, effective_bid_cents)`` over exactly the
            advertisers bidding on ``phrases`` (plain dicts under the
            object layout, :class:`repro.core.columnar.ArrayScoreMap`
            adapters under the columnar layout -- values are
            bit-identical either way).
        """
        if self._store is not None:
            return self._effective_scores_columnar(
                phrases, round_index, report
            )
        auctions_of: Dict[int, int] = {}
        for phrase in phrases:
            for advertiser_id in self.phrase_advertisers[phrase]:
                auctions_of[advertiser_id] = auctions_of.get(advertiser_id, 0) + 1
        scores: Dict[int, float] = {}
        effective_bid_cents: Dict[int, float] = {}
        carriers = self.budget_manager.debt_carriers
        for advertiser_id, m in auctions_of.items():
            advertiser = self._by_id[advertiser_id]
            bid_cents = dollars_to_cents(advertiser.bid)
            if self.throttle:
                if advertiser_id in carriers:
                    report.debt_carriers_scored += 1
                problem = self.budget_manager.throttle_problem(
                    advertiser_id, bid_cents, m, round_index
                )
                if (
                    self.collector.enabled
                    and problem.bid_cents > 0
                    and not problem.trivially_unthrottled()
                ):
                    # Real DP/enumeration runs: both layouts count them
                    # through this one counter.
                    self.collector.incr(metric_names.THROTTLE_EXACT_FALLBACKS)
                effective = exact_throttled_bid(problem)
            else:
                effective = float(
                    min(bid_cents, self.budget_manager.remaining_cents(advertiser_id))
                )
            effective_bid_cents[advertiser_id] = effective
            scores[advertiser_id] = effective / 100.0 * advertiser.ctr_factor
        return scores, effective_bid_cents

    def _sync_book_columns(self) -> int:
        """Bring the standing score columns up to the manager's books.

        Every display, settlement and expiry goes through the budget
        manager (stages 1 and 4, :meth:`settle_remaining_clicks` and a
        caller booking on ``engine.budget_manager`` alike), which
        remembers whom it moved; only their rows are re-derived, from
        ``β`` and the ledger's running liability.  A served tick moves
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
            for advertiser_id, beta, owed, carrying in zip(*changes):
                row = row_of(advertiser_id)
                cap = min(bid_cents(row), beta)
                self._cap_by_row[row] = cap
                self._slack_by_row[row] = beta - owed
                self._carrying_by_row[row] = carrying
                self._base_bid_by_row[row] = cap
                self._base_score_by_row[row] = cap / 100.0 * ctr_factor(row)
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
        self._base_bid_by_row[rows] = cap
        self._base_score_by_row[rows] = cap / 100.0 * store.ctr_factors[rows]

    def _effective_scores_columnar(
        self, phrases: Sequence[str], round_index: int, report: RoundReport
    ) -> Tuple[ArrayScoreMap, ArrayScoreMap]:
        """Stage 2 on standing columns: gather, and compute the exceptions.

        Bit-identical to the object stage.  Section IV's quick test
        ``ω_l <= β - m·b`` says when the throttled bid is simply
        ``float(min(b, β))`` -- what :func:`exact_throttled_bid` returns
        for a trivially unthrottled problem, and what the empty-ledger
        closed form ``min(m·cap, β) / m`` divides out to, exactly, when
        ``m·cap <= β`` (``m·cap < 2**53``).  That bid and its score
        stand in row space (:meth:`_sync_book_columns`), so a round
        gathers them for its rows and asks the test as ``m·cap >
        slack``, with the ledgers' running liability (an upper bound on
        ``ω_l``) inside ``slack``: no ledger is read for it.  Only rows
        that fail leave the closed form -- without outstanding ads
        ``min(m·cap, β) / m`` as array operations (``β`` is their
        ``slack``), with ads through :func:`exact_throttled_bid` one by
        one, as the object path does; its array DP is per problem
        because the problems are ragged (DESIGN.md section 16).  The
        problem is the budget manager's, built from the ledger, the
        first time and whenever the advertiser's books have moved since
        (:meth:`_sync_book_columns` evicts); in between it is the kept
        one asked again for this round's ``(bid, m)``, its ``min(β,
        S_l)`` array standing (DESIGN.md section 22).
        ``throttle=False`` is the same gathers with the test never
        asked.  One phrase (a served tick) and many differ only in how
        the round's rows and multiplicities ``m`` are found.
        """
        store = self._store
        assert store is not None
        if store.ids is not self._store_ids:
            raise InvalidAuctionError(
                f"the store's rows were renumbered under a running engine "
                f"(it indexed {len(self._store_ids)}, the store holds "
                f"{store.size}); build a new engine"
            )
        synced = self._sync_book_columns()
        # The round's rows and each one's auction multiplicity m_i: in
        # how many occurring phrases it is a member.
        if len(phrases) == 1:
            rows = store.phrase_rows(phrases[0])
            m = self._ones[: len(rows)]
        else:
            counts = np.bincount(
                np.concatenate([store.phrase_rows(p) for p in phrases]),
                minlength=store.size,
            )
            rows = np.flatnonzero(counts)
            m = counts[rows]
        ids_sub = store.ids[rows]
        collector = self.collector
        effective_sub = self._base_bid_by_row[rows]
        score_sub = self._base_score_by_row[rows]
        if self.throttle:
            cap = self._cap_by_row[rows]
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
                # whose ledger snapshots are those of every other such
                # round: ctr_j constant and no queued ad dead yet.
                keeping = (
                    not manager.decay_varies
                    and round_index < manager.earliest_dead_round
                )
                rebuilt = 0
                for at, advertiser_id, bid_cents, auctions in zip(
                    carrying.tolist(),
                    ids_sub[failed[carrying]].tolist(),
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
                        rebuilt += 1
                        cells = self._standing_cells + problem.array_cells
                        if keeping and cells <= STANDING_THROTTLE_CELL_LIMIT:
                            standing[advertiser_id] = problem
                            self._standing_cells = cells
                    if (
                        collector.enabled
                        and problem.bid_cents > 0
                        and not problem.trivially_unthrottled()
                    ):
                        collector.incr(metric_names.THROTTLE_EXACT_FALLBACKS)
                    effective_failed[at] = exact_throttled_bid(problem)
                effective_sub[failed] = effective_failed
                score_sub[failed] = (
                    effective_failed / 100.0 * store.ctr_factors[failed_rows]
                )
                report.debt_carriers_scored = len(carrying)
                if collector.enabled and rebuilt:
                    collector.incr(
                        metric_names.COLUMNAR_THROTTLE_PROBLEMS_REBUILT, rebuilt
                    )
            if collector.enabled:
                # Every occurring debt carrier counts: those the quick
                # test cleared were fallbacks that were trivial.
                carriers = int(np.count_nonzero(self._carrying_by_row[rows]))
                if carriers:
                    collector.incr(
                        metric_names.COLUMNAR_THROTTLE_FALLBACKS, carriers
                    )
        self._eff_by_row[rows] = effective_sub
        self._score_by_row[rows] = score_sub
        self._occurring_rows = rows
        if collector.enabled:
            collector.incr(metric_names.COLUMNAR_SCORE_BATCHES)
            collector.incr(metric_names.COLUMNAR_SCORE_ROWS, int(len(rows)))
            collector.incr(metric_names.COLUMNAR_BOOK_ROWS_SYNCED, synced)
        return (
            ArrayScoreMap(ids_sub, score_sub),
            ArrayScoreMap(ids_sub, effective_sub),
        )

    def _rank_phrases(
        self,
        phrases: Sequence[str],
        scores: Mapping[int, float],
        effective_bid_cents: Mapping[int, float],
        report: RoundReport,
    ) -> Mapping[str, TopKList]:
        """Stage 3: rankings via shared plan, shared sort + TA, or scans.

        A mapping from phrase to its top-(k+1) ``TopKList``: on the
        columnar layout a :class:`RankedRound`, the flat arrays stage 4
        prices, from the fragment executor, the Section III round kernel
        and a scan of more than one phrase alike.  The reference and a
        one-phrase scan (a served ``unshared`` tick) hand over lists.
        """
        k = self.k + 1
        store = self._store
        if store is None:
            # The reference: one scan of b̂_i * c per phrase in every
            # mode, c = c_i^q under shared-sort.  Sections II and III are
            # exact top-(k+1) mechanisms, so this is their auction.
            rankings: Dict[str, TopKList] = {}
            by_id = self._by_id
            for phrase in phrases:
                ids = self.phrase_advertisers[phrase]
                report.scans += len(ids)
                if self.mode == "shared-sort":
                    # The Section III kernels' float ops: (b̂ / 100) * c_i^q.
                    scored = (
                        ScoredAdvertiser(
                            effective_bid_cents[i] / 100.0
                            * by_id[i].ctr_factor_for(phrase),
                            i,
                        )
                        for i in ids
                    )
                else:
                    scored = (ScoredAdvertiser(scores[i], i) for i in ids)
                rankings[phrase] = top_k_scan(k, scored, self.collector)
            return rankings
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
                rows=self._occurring_rows,
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
            report.merges += kernel.begin_round(
                self._eff_by_row, self._occurring_rows
            )
            ranked, sorted_accesses = kernel.rank_round(phrases)
            report.scans += int(sorted_accesses.sum())
            return ranked
        by_row = self._score_by_row
        if len(phrases) == 1:
            rows = store.phrase_rows(phrases[0])
            report.scans += len(rows)
            return {
                phrases[0]: columnar_top_k(
                    k, by_row[rows], store.ids[rows], self.collector
                )
            }
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
        """Stage 3's hand-off: ``c = c_i`` read off the store's column."""
        store = self._store
        return RankedRound(
            phrases, self.k + 1, lens, scores, store.ids[rows], rows,
            store.ctr_factors[rows],
        )

    def _allocate_round(
        self,
        phrases: Sequence[str],
        rankings: Mapping[str, TopKList],
        effective_bid_cents: Mapping[int, float],
        round_index: int,
        report: RoundReport,
    ) -> None:
        """Stage 4: allocate slots, price clicks (GSP), book the displays.

        The round is the unit: every occurring phrase's slots are priced
        first, then the displayed ads are booked as outstanding debt in
        one :meth:`BudgetManager.record_displays` call and handed to the
        click model in one :meth:`DelayedClickModel.record_displays`
        call, in (phrase, slot) order -- its draws from the shared
        ``random.Random`` are the only part that has to stay sequential.
        The slot arithmetic has two routes that agree bit for bit:
        :meth:`_price_slots`, one array pass over a
        :class:`RankedRound`'s arrays, which a columnar round takes from
        :data:`ARRAY_PRICING_MIN_SLOTS` slots up, and
        :meth:`_allocate_phrase`, the scalar loop over one phrase's
        ``TopKList``, which the object layout always takes (it is the
        reference), as does a columnar round below the crossover -- a
        served tick among them -- reading a ``RankedRound`` through its
        ``Mapping`` face.
        """
        if (
            isinstance(rankings, RankedRound)
            and len(phrases) * self.k >= ARRAY_PRICING_MIN_SLOTS
        ):
            shown, slots, ids, prices, ctrs = self._price_slots(
                phrases, rankings
            )
        else:
            bid_of = (
                effective_bid_cents.__getitem__
                if self._store is None
                else self._row_bid
            )
            per_phrase = [
                self._allocate_phrase(phrase, rankings[phrase], bid_of)
                for phrase in phrases
            ]
            shown = [len(ads) for ads in per_phrase]
            flat = list(chain.from_iterable(per_phrase))
            slots, ids, prices, ctrs = zip(*flat) if flat else ((), (), (), ())
        handles = self.budget_manager.record_displays(
            ids, prices, ctrs, round_index
        )
        self.click_model.record_displays(
            round_index, ids, prices, ctrs, handles
        )
        allocated = zip(slots, ids, prices)
        for phrase, count in zip(phrases, shown):
            report.allocations[phrase] = tuple(islice(allocated, count))
        report.displays += len(ids)

    def _row_bid(self, advertiser_id: int) -> float:
        """The effective bid stage 2 left in row space (columnar layout);
        ``effective_bid_cents`` would binary-search the same value."""
        return float(self._eff_by_row[self._store.row_of(advertiser_id)])

    def _allocate_phrase(
        self,
        phrase: str,
        ranking: TopKList,
        bid_of: Callable[[int], float],
    ) -> List[Tuple[int, int, int, float]]:
        """Stage 4, scalar arithmetic: one phrase's displayed ads.

        Args:
            bid_of: The effective bid (cents) of a ranked advertiser.

        Returns:
            ``(slot, advertiser_id, price_cents, ctr)`` per displayed
            ad, in slot order.
        """
        entries = ranking.entries
        allocated: List[Tuple[int, int, int, float]] = []
        for slot in range(min(self.k, len(entries))):
            entry = entries[slot]
            advertiser = self._by_id[entry.advertiser_id]
            if entry.score <= 0.0:
                continue
            next_score = (
                entries[slot + 1].score if slot + 1 < len(entries) else 0.0
            )
            c_i = (
                advertiser.ctr_factor_for(phrase)
                if self.mode == "shared-sort"
                else advertiser.ctr_factor
            )
            if c_i <= 0.0:
                continue
            price_cents = min(
                bid_of(entry.advertiser_id), next_score / c_i * 100.0
            )
            price = int(round(price_cents))
            if price <= 0:
                continue
            ctr = min(1.0, c_i * self.ctr_model.slot_factors[slot])
            allocated.append((slot, entry.advertiser_id, price, ctr))
        return allocated

    def _price_slots(
        self, phrases: Sequence[str], rankings: RankedRound
    ) -> Tuple[List[int], List[int], List[int], List[int], List[float]]:
        """Stage 4, array arithmetic: the whole round's displayed ads.

        Works on every phrase's ranked entries laid end to end with
        their rows and CTR factors, as stage 3's backends hand them
        over (:attr:`RankedRound.arrays`).  The
        effective bids stage 2 left in row space are gathered and every
        slot is priced in :meth:`_allocate_phrase`'s exact operation
        order -- ``next / c * 100.0``, ``min``, then ``np.rint``, which
        rounds half to even as Python's ``round`` does -- so the prices
        agree bit for bit.  What the scalar loop skips (``score <= 0``,
        ``c <= 0``, ``price <= 0``) is masked.

        Returns:
            ``(shown, slots, ids, prices, ctrs)``: displayed ads per
            phrase, then one row per displayed ad in (phrase, slot)
            order.
        """
        # The arrays are in stage 3's phrase order; the caller books
        # `shown` against its own.
        assert rankings.phrases == tuple(phrases)
        lens, scores, ids, rows, c = rankings.arrays
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
            price = np.rint(
                np.minimum(self._eff_by_row[rows], next_score / c * 100.0)
            )
        at = np.flatnonzero(
            (slot < self.k) & (scores > 0.0) & (c > 0.0) & (price > 0.0)
        )
        slots = slot[at]
        ctrs = np.minimum(1.0, c[at] * self._slot_factors[slots])
        return (
            np.bincount(phrase_at[at], minlength=len(lens)).tolist(),
            slots.tolist(),
            ids[at].tolist(),
            price[at].astype(np.int64).tolist(),
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
        if rounds < 0:
            raise InvalidAuctionError(f"rounds must be >= 0, got {rounds}")
        report = EngineReport()
        for _ in range(rounds):
            report.absorb(self.run_round())
        revenue, forgiven, clicks = self.settle_remaining_clicks()
        report.revenue_cents += revenue
        report.forgiven_cents += forgiven
        report.clicks += clicks
        return report
