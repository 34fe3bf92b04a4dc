"""Exact and Monte-Carlo throttled-bid computation (Section IV-A/B).

The throttled bid of advertiser ``i`` taking part in ``m_i`` auctions
this round, with remaining budget ``β_i`` and outstanding debt
``S = sum_j X_j`` (``X_j = π_j`` w.p. ``ctr_j`` else 0), is::

    b̂_i = E[ min(b_i, max(0, β_i - S) / m_i) ]
        = E[ min(m_i b_i, β_i - min(β_i, S)) ] / m_i

Exact computation goes through the distribution of ``min(β_i, S)``:

- **DP over currency units** -- convolve the ads one at a time over the
  value range ``0..β`` (everything at or above ``β`` collapses into one
  saturated bucket), ``O(l·β)`` time.  The production form is a dense
  ``float64`` array (:func:`min_beta_s_array`); the sparse dict form
  (:func:`min_beta_s_distribution`) is the oracle and the route for
  problems too large to lay out densely;
- **enumeration** -- sum over all ``2^l`` outcomes, preferable when few
  ads are outstanding.

:func:`exact_throttled_bid` picks whichever is cheaper, matching the
paper's ``O(min(2^l, β))`` bound.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import BudgetError

__all__ = [
    "ThrottleProblem",
    "exact_throttled_bid",
    "throttled_bid_via_dp",
    "throttled_bid_via_enumeration",
    "monte_carlo_throttled_bid",
    "min_beta_s_distribution",
    "min_beta_s_array",
    "throttled_bid_via_array",
    "ARRAY_CELL_LIMIT",
]


def _check_ask(bid_cents: int, num_auctions: int) -> None:
    if bid_cents < 0:
        raise BudgetError(f"bid must be non-negative, got {bid_cents}")
    if num_auctions <= 0:
        raise BudgetError(
            f"the advertiser must be in at least one auction, got "
            f"{num_auctions}"
        )


@dataclass(frozen=True)
class ThrottleProblem:
    """Inputs to one throttled-bid computation.

    Attributes:
        bid_cents: The advertiser's stated per-click bid ``b_i``.
        budget_cents: Remaining budget ``β_i`` (budget minus settled
            charges; outstanding debts are *not* subtracted here -- they
            are what ``outstanding`` models).
        num_auctions: ``m_i`` -- auctions the advertiser takes part in
            this round.  Must be positive.
        outstanding: ``(π_j, ctr_j)`` pairs for the outstanding ads.
        max_liability: ``ω_l`` -- sum of outstanding prices, derived at
            construction (the quick test and the array DP both read it).

    The *books* -- ``budget_cents``, ``outstanding``, ``max_liability``
    -- fix the distribution of ``min(β, S_l)``; ``bid_cents`` and
    ``num_auctions`` only enter the last expectation.  :meth:`asked_again`
    is the same books under another ``(bid, m)``, and it shares what
    :func:`throttled_bid_via_array` computed from them.
    """

    bid_cents: int
    budget_cents: int
    num_auctions: int
    outstanding: Tuple[Tuple[int, float], ...] = ()
    max_liability: int = field(default=0, init=False, compare=False, repr=False)
    # (min_beta_s_array, β - arange), both read-only, once
    # throttled_bid_via_array has run over these books; until then the
    # class default.
    _standing: Optional[Tuple[np.ndarray, np.ndarray]] = field(
        default=None, init=False, compare=False, repr=False
    )

    def __init__(
        self,
        bid_cents: int,
        budget_cents: int,
        num_auctions: int,
        outstanding: Sequence[Tuple[int, float]] = (),
    ) -> None:
        _check_ask(bid_cents, num_auctions)
        if budget_cents < 0:
            raise BudgetError(f"budget must be non-negative, got {budget_cents}")
        cleaned: List[Tuple[int, float]] = []
        liability = 0
        for price, ctr in outstanding:
            if price < 0:
                raise BudgetError(f"outstanding price must be >= 0, got {price}")
            if not 0.0 <= ctr <= 1.0:
                raise BudgetError(f"outstanding CTR must be in [0, 1], got {ctr}")
            if price > 0 and ctr > 0.0:
                price = int(price)
                cleaned.append((price, float(ctr)))
                liability += price
        object.__setattr__(self, "bid_cents", int(bid_cents))
        object.__setattr__(self, "budget_cents", int(budget_cents))
        object.__setattr__(self, "num_auctions", int(num_auctions))
        object.__setattr__(self, "outstanding", tuple(cleaned))
        object.__setattr__(self, "max_liability", liability)

    def asked_again(self, bid_cents: int, num_auctions: int) -> "ThrottleProblem":
        """These books asked for another ``(bid, m)``.

        Equal to ``ThrottleProblem(bid_cents, self.budget_cents,
        num_auctions, self.outstanding)`` without walking the ads again:
        ``outstanding``, ``max_liability`` and the array route's
        distribution, if it has run, are shared, not copied.
        """
        _check_ask(bid_cents, num_auctions)
        again = object.__new__(ThrottleProblem)
        # Everything this problem holds, then the ask over it.
        vars(again).update(
            vars(self), bid_cents=int(bid_cents), num_auctions=int(num_auctions)
        )
        return again

    @property
    def array_cells(self) -> int:
        """Cells of :func:`min_beta_s_array` over these books."""
        return min(self.budget_cents, self.max_liability) + 1

    @property
    def expected_liability(self) -> float:
        """``μ_l = E[S_l]``."""
        return sum(price * ctr for price, ctr in self.outstanding)

    def trivially_unthrottled(self) -> bool:
        """The paper's quick test: ``ω_l <= β - m·b`` implies ``b̂ = b``."""
        return (
            self.max_liability
            <= self.budget_cents - self.num_auctions * self.bid_cents
        )


def min_beta_s_distribution(problem: ThrottleProblem) -> Dict[int, float]:
    """Distribution of ``min(β, S)`` via DP over currency units.

    Returns a sparse mapping ``value -> probability``; all mass at or
    above ``β`` is collapsed into the ``β`` bucket, which is why the
    state space stays ``O(β)``.
    """
    beta = problem.budget_cents
    dist: Dict[int, float] = {0: 1.0}
    for price, ctr in problem.outstanding:
        nxt: Dict[int, float] = {}
        for value, probability in dist.items():
            hit = min(beta, value + price)
            nxt[hit] = nxt.get(hit, 0.0) + probability * ctr
            nxt[value] = nxt.get(value, 0.0) + probability * (1.0 - ctr)
        dist = nxt
    return dist


def _value_given_spent(problem: ThrottleProblem, spent: float) -> float:
    """``min(m·b, β - min(β, S)) / m`` for a realized ``S = spent``."""
    headroom = problem.budget_cents - min(problem.budget_cents, spent)
    capped = min(problem.num_auctions * problem.bid_cents, headroom)
    return capped / problem.num_auctions


def throttled_bid_via_dp(problem: ThrottleProblem) -> float:
    """Exact ``b̂`` using the sparse currency-unit DP (``O(l·β)``)."""
    dist = min_beta_s_distribution(problem)
    return sum(
        probability * _value_given_spent(problem, value)
        for value, probability in dist.items()
    )


def throttled_bid_via_enumeration(problem: ThrottleProblem) -> float:
    """Exact ``b̂`` by enumerating all ``2^l`` click outcomes."""
    ads = problem.outstanding
    total = 0.0
    for mask in range(1 << len(ads)):
        probability = 1.0
        spent = 0
        for index, (price, ctr) in enumerate(ads):
            if mask >> index & 1:
                probability *= ctr
                spent += price
            else:
                probability *= 1.0 - ctr
        total += probability * _value_given_spent(problem, spent)
    return total


def min_beta_s_array(problem: ThrottleProblem) -> np.ndarray:
    """Dense distribution of ``min(β, S)``; cell ``v`` is ``P[min(β, S) = v]``.

    ``S`` never exceeds ``ω_l``, so the array has ``min(β, ω_l) + 1``
    cells -- bounded by liability, not by budget -- and the last cell
    collects everything that would land at or beyond it.  Each ad is one
    in-place scale by ``1 - ctr`` plus one shifted add of the ``ctr``
    share.  Every cell receives at most one addend per ad except the
    last, whose addends are summed left to right (``cumsum``, never the
    pairwise ``sum``), so a plain ascending-index Python loop reproduces
    the floats bit for bit.
    """
    cap = min(problem.budget_cents, problem.max_liability)
    dist = np.zeros(cap + 1)
    dist[0] = 1.0
    reach = 0  # cells above ``reach`` still hold exact zeros
    for price, ctr in problem.outstanding:
        live = dist[: reach + 1]
        hit = live * ctr
        live *= 1.0 - ctr
        # Sources ``v < direct`` land on their own cell ``v + price < cap``.
        direct = max(0, min(cap - price, reach + 1))
        if direct:
            dist[price : price + direct] += hit[:direct]
        if direct <= reach:
            dist[cap] += np.cumsum(hit[direct:])[-1]
        reach = min(cap, reach + price)
    return dist


def throttled_bid_via_array(problem: ThrottleProblem) -> float:
    """Exact ``b̂`` using the dense array DP (``O(l·min(β, ω_l))``).

    The distribution and the headroom ``β - v`` of its cells depend on
    the books alone, so the first call leaves both on the problem,
    read-only, and a problem :meth:`~ThrottleProblem.asked_again` off
    it pays the last expectation only: the same operations on the same
    cells, hence the same bits as running the DP again.
    """
    standing = problem._standing
    if standing is None:
        dist = min_beta_s_array(problem)
        headroom = problem.budget_cents - np.arange(len(dist))
        dist.flags.writeable = headroom.flags.writeable = False
        standing = (dist, headroom)
        object.__setattr__(problem, "_standing", standing)
    dist, headroom = standing
    m = problem.num_auctions
    # ``headroom <= β``: capping ``m·b`` at ``β`` changes no value and
    # keeps the scalar inside int64.
    capped = min(m * problem.bid_cents, problem.budget_cents)
    values = np.minimum(capped, headroom) / m
    return float(np.cumsum(dist * values)[-1])


#: Above this many cells the array DP is not allocated (32 MiB of
#: float64 per array at the limit); the sparse dict DP answers instead.
ARRAY_CELL_LIMIT = 1 << 22

# Enumeration against the array DP, in units of one enumeration
# inner-loop step (~0.15 us; enumeration takes ``l·2^l`` of them): one
# array-DP ad costs ~4 us of numpy call overhead plus ~3.5 ns per cell.
# Both constants lean towards the array so the choice is right on either
# side of the measured crossover (benchmarks/test_bench_throttle.py).
_ARRAY_AD_OVERHEAD = 32
_ARRAY_CELLS_PER_STEP = 64


def exact_throttled_bid(problem: ThrottleProblem) -> float:
    """Exact ``b̂`` by the cheapest exact route.

    The paper's ``O(min(2^l, l·β))``, decided from ``l`` and the array
    DP's cell count alone: the quick test first; the sparse dict DP when
    the array would exceed :data:`ARRAY_CELL_LIMIT`; enumeration when
    its ``l·2^l`` Python steps undercut the array DP's per-ad numpy
    overhead (a handful of ads, or few ads over a wide range); the
    array DP otherwise.
    """
    if problem.trivially_unthrottled():
        return float(problem.bid_cents)
    if problem.bid_cents == 0 or problem.budget_cents == 0:
        return 0.0
    cells = min(problem.budget_cents, problem.max_liability) + 1
    if cells > ARRAY_CELL_LIMIT:
        return throttled_bid_via_dp(problem)
    if (1 << len(problem.outstanding)) <= (
        _ARRAY_AD_OVERHEAD + cells // _ARRAY_CELLS_PER_STEP
    ):
        return throttled_bid_via_enumeration(problem)
    return throttled_bid_via_array(problem)


def monte_carlo_throttled_bid(
    problem: ThrottleProblem, samples: int, rng: random.Random
) -> float:
    """Monte-Carlo estimate of ``b̂`` (used by property tests as an oracle)."""
    if samples <= 0:
        raise BudgetError(f"samples must be positive, got {samples}")
    total = 0.0
    for _ in range(samples):
        spent = 0
        for price, ctr in problem.outstanding:
            if rng.random() < ctr:
                spent += price
        total += _value_given_spent(problem, spent)
    return total / samples
