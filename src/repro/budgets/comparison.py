"""Bound-driven comparison and top-k selection of throttled bids.

Winner determination needs only the *order* of throttled bids, not their
values.  :class:`BoundedBid` wraps one advertiser's throttle problem and
lazily tightens its interval by expanding one more outstanding ad at each
refinement; :func:`compare_throttled_bids` refines the two contenders --
widest interval first -- until their intervals separate (or both are
exact); :func:`top_k_throttled` runs a selection over many advertisers,
reusing each advertiser's cached bounds across comparisons, exactly the
caching the paper describes.

After selection, the precise ``b̂`` of the (at most ``k``) winners is
computed exactly for pricing -- cheap compared to computing all ``n``
exactly, which is the point of Section IV-B.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.budgets.hoeffding import Interval, throttled_bid_bounds
from repro.budgets.throttle import ThrottleProblem, exact_throttled_bid
from repro.errors import BudgetError

__all__ = ["BoundedBid", "compare_throttled_bids", "top_k_throttled", "SelectionStats"]


class BoundedBid:
    """An advertiser's throttled bid with lazily refined bounds.

    Attributes:
        advertiser_id: Used for deterministic tie-breaking.
        problem: The underlying throttle inputs.
        depth: Outstanding ads expanded so far.
        refinements: Total refinement steps performed (for benchmarks).
    """

    def __init__(self, advertiser_id: int, problem: ThrottleProblem) -> None:
        self.advertiser_id = advertiser_id
        self.problem = problem
        self.depth = 0
        self.refinements = 0
        self._bounds = throttled_bid_bounds(problem, depth=0)

    @property
    def bounds(self) -> Interval:
        """The current interval around ``b̂`` (in cents)."""
        return self._bounds

    @property
    def exact(self) -> bool:
        """Whether the interval has collapsed (all ads expanded or width 0)."""
        return (
            self.depth >= len(self.problem.outstanding)
            or self._bounds.width <= 1e-9
        )

    def refine(self) -> bool:
        """Expand one more outstanding ad; returns ``False`` if already exact."""
        if self.exact:
            return False
        self.depth += 1
        self.refinements += 1
        refined = throttled_bid_bounds(self.problem, depth=self.depth)
        # Bounds can only tighten; intersect to enforce monotonicity in
        # the face of floating-point wobble.
        self._bounds = Interval(
            max(self._bounds.lo, refined.lo), min(self._bounds.hi, refined.hi)
        )
        return True

    def resolve_exact(self) -> float:
        """The precise ``b̂`` (used for pricing the winners).

        Jumping straight to the exact value is equivalent to expanding
        every remaining outstanding ad at once, so the skipped depths
        count toward :attr:`refinements` -- otherwise selection-work
        accounting would under-report exactly the expensive resolutions.
        """
        remaining_depth = len(self.problem.outstanding) - self.depth
        if remaining_depth > 0:
            self.refinements += remaining_depth
        value = exact_throttled_bid(self.problem)
        self._bounds = Interval(value, value)
        self.depth = len(self.problem.outstanding)
        return value


def compare_throttled_bids(
    first: BoundedBid,
    second: BoundedBid,
    scheduler=None,
) -> int:
    """Order two throttled bids, refining bounds only as far as needed.

    Returns ``1`` if ``first`` ranks above ``second`` (higher ``b̂``, ties
    by lower advertiser id), ``-1`` for the converse.  Never returns 0:
    ties in value are broken by id so that rankings are total.

    Args:
        first: One contender.
        second: The other contender.
        scheduler: Optional refinement policy
            ``(first, second, step) -> BoundedBid`` choosing which
            contender expands next (see
            :mod:`repro.budgets.schedulers`); defaults to widest-first.
            Schedulers affect only the work done, never the answer.
    """
    if first.advertiser_id == second.advertiser_id:
        raise BudgetError("cannot compare an advertiser with itself")
    step = 0
    while True:
        a, b = first.bounds, second.bounds
        # Separation must clear the same 1e-9 near-tie margin used
        # below: a collapsed interval's endpoints carry float noise
        # from a different summation order than the exact DP, so two
        # mathematically equal values can land strictly disjoint by a
        # few ulps -- which must resolve by id, not by that noise.
        if a.lo > b.hi + 1e-9:
            return 1
        if b.lo > a.hi + 1e-9:
            return -1
        refinable = [bid for bid in (first, second) if not bid.exact]
        if not refinable:
            # Both exact and overlapping => equal values; break by id.
            if abs(a.midpoint - b.midpoint) > 1e-9:
                return 1 if a.midpoint > b.midpoint else -1
            return 1 if first.advertiser_id < second.advertiser_id else -1
        if len(refinable) == 1:
            target = refinable[0]
        elif scheduler is None:
            target = (
                first if first.bounds.width >= second.bounds.width else second
            )
        else:
            target = scheduler(first, second, step)
            if target.exact:
                target = refinable[0]
        target.refine()
        step += 1


@dataclass
class SelectionStats:
    """Work counters for one top-k selection under uncertainty.

    Attributes:
        comparisons: Pairwise comparisons resolved.
        refinements: Total bound-refinement (expansion) steps across all
            advertisers.
        exact_fallbacks: Advertisers whose value had to be computed
            exactly during selection (ties).
    """

    comparisons: int = 0
    refinements: int = 0
    exact_fallbacks: int = 0


def top_k_throttled(
    bids: Sequence[BoundedBid], k: int
) -> Tuple[List[BoundedBid], SelectionStats]:
    """Select the advertisers with the top-k throttled bids.

    A simple bound-aware selection: maintain the current top-k as a
    sorted list and insert each contender by binary search using
    :func:`compare_throttled_bids`; a contender whose upper bound is
    below the current k-th lower bound is rejected without any
    comparison, which is where the bounds save most of the work.

    Returns:
        The winners in rank order plus work counters.
    """
    if k <= 0:
        raise BudgetError(f"k must be positive, got {k}")
    stats = SelectionStats()
    top: List[BoundedBid] = []
    # Bids already exact on arrival (trivially unthrottled, or no
    # outstanding ads) never *fell back*; only a bid whose interval the
    # selection itself drove to exactness counts.
    fell_back = {
        bid.advertiser_id for bid in bids if bid.exact
    }

    def note_fallbacks(*contenders: BoundedBid) -> None:
        for contender in contenders:
            if contender.exact and contender.advertiser_id not in fell_back:
                fell_back.add(contender.advertiser_id)
                stats.exact_fallbacks += 1

    def insert(bid: BoundedBid) -> None:
        lo, hi = 0, len(top)
        while lo < hi:
            mid = (lo + hi) // 2
            stats.comparisons += 1
            before = bid.refinements + top[mid].refinements
            outcome = compare_throttled_bids(bid, top[mid])
            stats.refinements += (bid.refinements + top[mid].refinements) - before
            note_fallbacks(bid, top[mid])
            if outcome > 0:
                hi = mid
            else:
                lo = mid + 1
        top.insert(lo, bid)

    for bid in bids:
        if len(top) >= k and bid.bounds.hi < top[-1].bounds.lo:
            continue  # Provably out of the running; zero comparisons.
        insert(bid)
        if len(top) > k:
            top.pop()
    return top, stats
