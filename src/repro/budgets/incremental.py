"""Incremental Section IV throttling on the engine's change feed.

The seed engine recomputed ``b̂_i`` -- the ``O(min(2^l, l·β))`` exact
throttle DP -- for every advertiser on every round and every served
query, even though an advertiser's throttle inputs only move when its
*books* move: a click settles, a display becomes outstanding debt, or an
outstanding ad expires.  All three already announce themselves as
``BudgetChanged`` events on the unified change feed (PR 6), which makes
throttling just another cross-round cache problem:

- :class:`IncrementalThrottleCache` memoizes, per advertiser, the last
  :class:`repro.budgets.throttle.ThrottleProblem` together with its
  exact value and/or its lazily refined
  :class:`repro.budgets.comparison.BoundedBid`.  An entry is reusable
  while (a) no drained event touched the advertiser, (b) the cache key
  ``(bid_cents, num_auctions)`` is unchanged (multiplicity ``m_i`` feeds
  the problem, so it is part of the key rather than an event), and
  (c) the decay model does not re-weigh debt each round
  (:attr:`repro.engine.budget_manager.BudgetManager.decay_varies`;
  when it does, entries are valid only within the round they were
  built).  Clean advertisers reuse their last b̂ in O(1).

- :meth:`IncrementalThrottleCache.select_top` is the paper's Section
  IV-B selection, CTR-scaled for the engine's ranking order: depth-0
  Hoeffding bounds first, refining by the largest-π expand-out only
  when two throttled bids are actually incomparable inside top-k
  selection, and falling back to the exact DP only for the survivors
  (whose precise b̂ GSP pricing needs anyway).

Soundness contract (the verify mode cross-checks it): the cache assumes
``expire_outstanding(round_index)`` ran before scoring each round -- the
engine's stage 1 guarantees this -- so that under a non-varying decay
model every snapshot change is covered by a published event.  With
``verify=True`` every reuse rebuilds the problem fresh and raises
:class:`repro.errors.BudgetError` on any mismatch, the same
declared-vs-diffed contract the exec and sort caches enforce.

Float identity: a reused or memoized value is the *same float* an
uncached run computes, because equal :class:`ThrottleProblem` inputs go
through the identical code path.  Bound-driven selection decides an
order from intervals only when they are separated by more than the
bounds' own floating-point noise; anything closer resolves both sides
exactly and compares the engine's own score expression
(``value / 100.0 * ctr_factor``, ties by lower id).  That is why the
50-seed differential can demand bit-identical winners, prices, and
budget trajectories rather than winners "up to epsilon".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.budgets.comparison import BoundedBid
from repro.budgets.throttle import ThrottleProblem, exact_throttled_bid
from repro.errors import BudgetError
from repro.instrument import NULL, Collector, names as metric_names

__all__ = ["IncrementalThrottleCache", "ThrottleCacheStats"]

_SUBSCRIBED_KINDS = ("budget_changed", "advertiser_removed")

# Interval separation margin, in score units (b̂/100 · c).  Bounds carry
# floating-point noise around 1e-12 of their magnitude; real score gaps
# in generated markets sit at 1e-4 and above.  Two intervals closer than
# this margin are treated as incomparable and resolved exactly, which
# can only cost work, never change an outcome.
_SCORE_EPS = 1e-9

# Expansion ceiling during selection.  One expand-out step at depth d
# recurses over every click pattern of the d expanded ads, so its cost
# grows like 2^d while the exact DP is a flat O(l·β): past a few levels
# the "lazy" bound is dearer than the value it brackets.  Depth 0-3
# resolves the well-separated comparisons (the common case); anything
# still overlapping at the ceiling goes straight to the DP.
_MAX_EXPAND_DEPTH = 3


@dataclass
class ThrottleCacheStats:
    """Work counters for the incremental throttle layer.

    Attributes:
        problems_reused: Clean advertisers whose cached problem (and
            value/bounds) was served in O(1).
        problems_rebuilt: Throttle problems rebuilt from the budget
            manager (dirty, key moved, round-scoped, or never cached).
        invalidations: Cache entries marked dirty by drained events.
        exact_fallbacks: Non-trivial exact b̂ computations -- the DP or
            enumeration actually ran.  Trivially unthrottled problems
            and zero bids short-circuit for free and are not counted.
        bounds_comparisons: Interval comparisons made during
            bound-driven top-k selection.
        expansions: Largest-π expand-out steps taken to separate
            incomparable intervals.
    """

    problems_reused: int = 0
    problems_rebuilt: int = 0
    invalidations: int = 0
    exact_fallbacks: int = 0
    bounds_comparisons: int = 0
    expansions: int = 0


class _Entry:
    """One advertiser's cached throttle state."""

    __slots__ = ("advertiser_id", "key", "round_index", "problem", "bid",
                 "exact_value")

    def __init__(
        self,
        advertiser_id: int,
        key: Tuple[int, int],
        round_index: int,
        problem: ThrottleProblem,
    ) -> None:
        self.advertiser_id = advertiser_id
        self.key = key
        self.round_index = round_index
        self.problem = problem
        self.bid: Optional[BoundedBid] = None
        self.exact_value: Optional[float] = None


class _Contender:
    """A cache entry scaled into ranking-score space for one phrase."""

    __slots__ = ("entry", "factor", "scaled_lo", "scaled_hi")

    def __init__(self, entry: _Entry, factor: float) -> None:
        self.entry = entry
        self.factor = factor
        self.rescale()

    def rescale(self) -> None:
        if self.entry.exact_value is not None:
            value = self.entry.exact_value / 100.0 * self.factor
            self.scaled_lo = value
            self.scaled_hi = value
            return
        bounds = self.entry.bid.bounds
        self.scaled_lo = bounds.lo / 100.0 * self.factor
        self.scaled_hi = bounds.hi / 100.0 * self.factor

    @property
    def refinable(self) -> bool:
        return (
            self.entry.exact_value is None
            and not self.entry.bid.exact
            and self.entry.bid.depth < _MAX_EXPAND_DEPTH
        )

    @property
    def width(self) -> float:
        return self.scaled_hi - self.scaled_lo


class IncrementalThrottleCache:
    """Per-advertiser throttled-bid cache fed by the change-feed bus.

    Args:
        manager: The budget manager owning the books this cache mirrors.
        collector: Receives the ``throttle.*`` counters.
        verify: Cross-check every reuse against a freshly built problem
            and raise :class:`repro.errors.BudgetError` on mismatch (an
            undeclared book movement means the change feed is unsound).
            Costs an O(l) problem build per reuse -- the debugging
            posture, exactly like the other caches' ``cache_verify``.
        memoize: ``False`` runs the identical code paths (and counters)
            but never reuses an entry across accesses -- the honest
            "per-access exact recompute" baseline the benchmark and the
            differential tests compare against.

    An instance with ``memoize=True`` must be :meth:`connect`-ed to the
    engine's :class:`repro.engine.changefeed.ChangeFeed` before first
    use; without a subscription it could never learn about settlements
    and would serve stale b̂ values.
    """

    def __init__(
        self,
        manager,
        collector: Collector = NULL,
        verify: bool = False,
        memoize: bool = True,
    ) -> None:
        self._manager = manager
        self._collector = collector
        self._verify = verify
        self._memoize = memoize
        self._entries: Dict[int, _Entry] = {}
        self._dirty: Set[int] = set()
        self._subscription = None
        self.stats = ThrottleCacheStats()

    # ------------------------------------------------------------------
    # change-feed plumbing
    # ------------------------------------------------------------------
    def connect(self, feed) -> None:
        """Subscribe to the book movements that invalidate entries.

        ``BudgetChanged`` covers every settlement, display, and expiry
        (the budget manager publishes them at the source);
        ``AdvertiserRemoved`` evicts.  Auction-multiplicity changes need
        no event because ``num_auctions`` is part of the cache key, and
        decay re-weighing needs none because a varying decay model makes
        entries round-scoped.
        """
        self._subscription = feed.subscribe(
            "throttle-cache", kinds=_SUBSCRIBED_KINDS
        )

    def drain(self) -> None:
        """Consume pending events, marking touched entries dirty.

        The engine calls this once per scoring pass (round or served
        query); standalone users call it whenever they are about to read
        bids after mutating books.
        """
        subscription = self._subscription
        if subscription is None or not subscription.pending:
            return
        invalidated = 0
        for event in subscription.drain():
            if event.kind == "advertiser_removed":
                for advertiser_id in event.dirty_advertisers:
                    if self._entries.pop(advertiser_id, None) is not None:
                        invalidated += 1
                    self._dirty.discard(advertiser_id)
                continue
            for advertiser_id in event.dirty_advertisers:
                if (
                    advertiser_id in self._entries
                    and advertiser_id not in self._dirty
                ):
                    self._dirty.add(advertiser_id)
                    invalidated += 1
        if invalidated:
            self.stats.invalidations += invalidated
            if self._collector.enabled:
                self._collector.incr(
                    metric_names.THROTTLE_CACHE_INVALIDATIONS, invalidated
                )

    # ------------------------------------------------------------------
    # entry lifecycle
    # ------------------------------------------------------------------
    def _entry(
        self,
        advertiser_id: int,
        bid_cents: int,
        num_auctions: int,
        round_index: int,
    ) -> _Entry:
        self.drain()
        key = (bid_cents, num_auctions)
        if self._memoize:
            if self._subscription is None:
                raise BudgetError(
                    "IncrementalThrottleCache must be connect()-ed to a "
                    "change feed before caching; without events it would "
                    "serve stale throttled bids"
                )
            entry = self._entries.get(advertiser_id)
            if (
                entry is not None
                and advertiser_id not in self._dirty
                and entry.key == key
                and (
                    entry.round_index == round_index
                    or not self._manager.decay_varies
                )
            ):
                if self._verify:
                    fresh = self._manager.throttle_problem(
                        advertiser_id, bid_cents, num_auctions, round_index
                    )
                    if fresh != entry.problem:
                        raise BudgetError(
                            "unsound change feed: throttle inputs for "
                            f"advertiser {advertiser_id} moved with no "
                            f"covering event ({entry.problem} -> {fresh})"
                        )
                entry.round_index = round_index
                self.stats.problems_reused += 1
                if self._collector.enabled:
                    self._collector.incr(metric_names.THROTTLE_PROBLEMS_REUSED)
                return entry
        problem = self._manager.throttle_problem(
            advertiser_id, bid_cents, num_auctions, round_index
        )
        entry = _Entry(advertiser_id, key, round_index, problem)
        if self._memoize:
            self._entries[advertiser_id] = entry
            self._dirty.discard(advertiser_id)
        self.stats.problems_rebuilt += 1
        if self._collector.enabled:
            self._collector.incr(metric_names.THROTTLE_PROBLEMS_REBUILT)
        return entry

    def _resolve(self, entry: _Entry) -> float:
        """The exact b̂ for an entry, memoized, with honest work counts.

        :func:`exact_throttled_bid` answers a zero capped bid and a
        trivially unthrottled problem without running a DP, so neither
        counts as an exact fallback (the engine's uncached path counts
        by the same predicate).
        """
        if entry.exact_value is not None:
            return entry.exact_value
        problem = entry.problem
        if problem.bid_cents > 0 and not problem.trivially_unthrottled():
            self.stats.exact_fallbacks += 1
            if self._collector.enabled:
                self._collector.incr(metric_names.THROTTLE_EXACT_FALLBACKS)
        value = exact_throttled_bid(problem)
        entry.exact_value = value
        if entry.bid is not None:
            entry.bid.collapse(value)
        return value

    def _bounded(self, entry: _Entry) -> BoundedBid:
        if entry.bid is None:
            entry.bid = BoundedBid(entry.advertiser_id, entry.problem)
            if entry.exact_value is not None:
                entry.bid.collapse(entry.exact_value)
        return entry.bid

    # ------------------------------------------------------------------
    # public scoring API
    # ------------------------------------------------------------------
    def exact_bid(
        self,
        advertiser_id: int,
        bid_cents: int,
        num_auctions: int,
        round_index: int,
    ) -> float:
        """The exact b̂ in cents -- the drop-in for the per-round DP.

        Bit-identical to
        ``exact_throttled_bid(manager.throttle_problem(...))`` on the
        same books; cheaper whenever the advertiser is clean.
        """
        return self._resolve(
            self._entry(advertiser_id, bid_cents, num_auctions, round_index)
        )

    def cached_advertisers(self) -> int:
        """Entries currently resident (for reports and tests)."""
        return len(self._entries)

    def select_top(
        self,
        contenders: Sequence[Tuple[int, int, int, float]],
        k: int,
        round_index: int,
    ) -> List[Tuple[int, float, float]]:
        """Bound-driven top-k selection in the engine's ranking order.

        Args:
            contenders: ``(advertiser_id, bid_cents, num_auctions,
                ctr_factor)`` per advertiser bidding on the phrase.
            k: Entries to select (the engine asks for slots + 1 so GSP
                can see the runner-up).
            round_index: The scoring round.

        Returns:
            At most ``k`` tuples ``(advertiser_id, exact_bid_cents,
            score)`` in rank order -- score descending, ties by lower
            advertiser id -- where ``score`` is the engine's own float
            expression ``exact_bid_cents / 100.0 * ctr_factor``.  Every
            returned advertiser is resolved exactly (pricing needs it);
            everyone else stays at whatever bound depth selection
            reached.
        """
        if k <= 0:
            raise BudgetError(f"k must be positive, got {k}")
        stats = self.stats
        collector = self._collector
        top: List[_Contender] = []

        def refine(contender: _Contender) -> bool:
            if not contender.refinable:
                return False
            contender.entry.bid.refine()
            stats.expansions += 1
            if collector.enabled:
                collector.incr(metric_names.THROTTLE_EXPANSIONS)
            contender.rescale()
            return True

        def exact_score(contender: _Contender) -> float:
            value = self._resolve(contender.entry)
            contender.rescale()
            return value / 100.0 * contender.factor

        def ranks_above(a: _Contender, b: _Contender) -> bool:
            """Engine order: score descending, ties by lower id."""
            while True:
                stats.bounds_comparisons += 1
                if collector.enabled:
                    collector.incr(metric_names.THROTTLE_BOUNDS_COMPARISONS)
                if a.scaled_lo > b.scaled_hi + _SCORE_EPS:
                    return True
                if b.scaled_lo > a.scaled_hi + _SCORE_EPS:
                    return False
                # Incomparable: expand the wider interval out one more
                # ad (the largest-π-first order lives in BoundedBid).
                target, other = (a, b) if a.width >= b.width else (b, a)
                if refine(target) or refine(other):
                    continue
                # Both at their final bounds and still overlapping:
                # resolve exactly and compare the engine's own floats.
                score_a, score_b = exact_score(a), exact_score(b)
                if score_a != score_b:
                    return score_a > score_b
                return a.entry.advertiser_id < b.entry.advertiser_id

        for advertiser_id, bid_cents, num_auctions, factor in contenders:
            entry = self._entry(
                advertiser_id, bid_cents, num_auctions, round_index
            )
            self._bounded(entry)
            contender = _Contender(entry, factor)
            if (
                len(top) >= k
                and contender.scaled_hi < top[-1].scaled_lo - _SCORE_EPS
            ):
                # Provably below the current k-th: rejected for the cost
                # of one bounds look, no comparisons at all.
                stats.bounds_comparisons += 1
                if collector.enabled:
                    collector.incr(metric_names.THROTTLE_BOUNDS_COMPARISONS)
                continue
            lo, hi = 0, len(top)
            while lo < hi:
                mid = (lo + hi) // 2
                if ranks_above(contender, top[mid]):
                    hi = mid
                else:
                    lo = mid + 1
            top.insert(lo, contender)
            if len(top) > k:
                top.pop()

        return [
            (
                contender.entry.advertiser_id,
                self._resolve(contender.entry),
                exact_score(contender),
            )
            for contender in top
        ]
