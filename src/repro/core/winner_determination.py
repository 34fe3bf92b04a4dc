"""Single-auction winner determination.

Winner determination assigns the ``k`` ad slots to the ``n`` interested
advertisers so as to maximize the total expected amount of bids realized,
with no advertiser taking more than one slot (the integer program in the
paper's introduction).

Two regimes are implemented:

- **Separable** (Section II-A): when ``ctr_ij = c_i * d_j`` with the slots
  ordered by non-increasing ``d_j``, the optimum simply places the
  advertiser with the ``j``-th highest ``b_i * c_i`` in slot ``j``.  One
  scan, ``O(n log k)``.
- **Non-separable** (Section V, from Martin-Gehrke-Halpern 2008): build
  the advertiser-slot bipartite graph weighted by ``ctr_ij * b_i``, prune
  each slot to its top-k incident advertisers, and solve max-weight
  matching on the pruned graph with the Hungarian algorithm.  A
  brute-force exact matcher over the *unpruned* graph is also provided for
  cross-validation.

The non-separable path additionally has a *columnar* kernel
(:func:`determine_winners_nonseparable_columnar`): the ``n x k`` weight
matrix is built as one outer-product-shaped numpy op
(``ctr_matrix * bids[:, None]``), each slot's top-k prune is an
``np.argpartition`` column selection with the same boundary-tie
expansion discipline as :func:`repro.core.columnar.columnar_top_k`, and
the pruned ``O(k^2) x k`` graph feeds the *same*
:func:`repro.core.matching.hungarian_max_weight`.  Per-element float
products are IEEE-identical to the object path's
``model.ctr(i, j) * a.bid`` and the per-slot selection reproduces
``top_k_scan`` byte for byte, so the object path stays the exact
differential oracle, not an approximate one.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.advertiser import Advertiser
from repro.core.auction import Allocation, AuctionSpec
from repro.core.columnar import columnar_top_k
from repro.core.ctr import CTRModel, MatrixCTRModel, SeparableCTRModel
from repro.core.matching import hungarian_max_weight
from repro.core.topk import ScoredAdvertiser, TopKList, top_k_scan
from repro.errors import InvalidAuctionError


__all__ = [
    "determine_winners",
    "determine_winners_separable",
    "determine_winners_nonseparable",
    "determine_winners_nonseparable_columnar",
    "nonseparable_weight_matrix",
    "allocation_from_topk",
    "prune_candidates",
]


def determine_winners(spec: AuctionSpec) -> Allocation:
    """Winner determination dispatching on the CTR model type.

    Uses the linear-scan separable algorithm when the spec carries a
    :class:`SeparableCTRModel`, and the pruned-Hungarian non-separable
    algorithm otherwise.
    """
    if isinstance(spec.ctr_model, SeparableCTRModel):
        return determine_winners_separable(spec)
    return determine_winners_nonseparable(spec)


def determine_winners_separable(spec: AuctionSpec) -> Allocation:
    """Separable winner determination: top-k by ``b_i * c_i``.

    The advertiser with the ``j``-th highest score is assigned slot ``j``
    (slots ordered by non-increasing ``d_j``).  Ties in score are broken
    by ascending advertiser id.
    """
    model = spec.ctr_model
    if not isinstance(model, SeparableCTRModel):
        raise InvalidAuctionError(
            "determine_winners_separable requires a SeparableCTRModel"
        )
    k = spec.num_slots
    scored = (
        ScoredAdvertiser(
            a.bid * model.advertiser_factor(a.advertiser_id), a.advertiser_id
        )
        for a in spec.advertisers
    )
    ranking = top_k_scan(k, scored)
    return allocation_from_topk(ranking, model, k)


def allocation_from_topk(
    ranking: TopKList, model: SeparableCTRModel, num_slots: int
) -> Allocation:
    """Convert a top-k ranking of ``b_i * c_i`` scores into an allocation.

    This is the bridge the shared machinery uses: shared plans and shared
    sorts produce :class:`TopKList` rankings; this function turns one into
    the slot assignment and objective value for a concrete auction.
    """
    slots: List[int | None] = [None] * num_slots
    value = 0.0
    for j, entry in enumerate(ranking.entries[:num_slots]):
        slots[j] = entry.advertiser_id
        value += entry.score * model.slot_factors[j]
    return Allocation(tuple(slots), value)


def prune_candidates(
    advertisers: Sequence[Advertiser], model: CTRModel, num_slots: int
) -> List[Advertiser]:
    """Keep only advertisers among the top-k of some slot (Section V).

    For each slot ``j``, the ``k`` advertisers with the highest
    ``ctr_ij * b_i`` are retained; the union over slots (at most ``k^2``
    advertisers) provably contains an optimal assignment, because an
    optimal matching assigns each slot to somebody, and replacing a
    non-retained advertiser in slot ``j`` with an unused retained one
    never lowers the objective.
    """
    keep: Dict[int, Advertiser] = {}
    by_id = {a.advertiser_id: a for a in advertisers}
    for j in range(num_slots):
        scored = (
            ScoredAdvertiser(model.ctr(a.advertiser_id, j) * a.bid, a.advertiser_id)
            for a in advertisers
        )
        for entry in top_k_scan(num_slots, scored):
            keep[entry.advertiser_id] = by_id[entry.advertiser_id]
    return [keep[i] for i in sorted(keep)]


def determine_winners_nonseparable(
    spec: AuctionSpec, prune: bool = True
) -> Allocation:
    """Non-separable winner determination via pruned max-weight matching.

    Args:
        spec: The auction; its CTR model may be any :class:`CTRModel`.
        prune: When ``True`` (default), apply the top-k-per-slot pruning of
            Section V before matching; when ``False``, match the full
            bipartite graph (used by tests to validate the pruning).
    """
    model = spec.ctr_model
    k = spec.num_slots
    candidates = list(spec.advertisers)
    if prune and len(candidates) > k * k:
        candidates = prune_candidates(candidates, model, k)
    if not candidates:
        return Allocation(tuple([None] * k), 0.0)
    weights = [
        [model.ctr(a.advertiser_id, j) * a.bid for j in range(k)]
        for a in candidates
    ]
    assignment, total = hungarian_max_weight(weights)
    slots: List[int | None] = [None] * k
    for row, j in enumerate(assignment):
        if j is not None:
            slots[j] = candidates[row].advertiser_id
    return Allocation(tuple(slots), total)


def nonseparable_weight_matrix(
    spec: AuctionSpec,
) -> Tuple["np.ndarray", "np.ndarray"]:
    """The Section V bipartite weights as arrays (advertisers in spec order).

    Returns:
        ``(ids, weights)``: the advertiser ids (int64, spec order) and
        the ``n x k`` float64 matrix with ``weights[i, j] =
        ctr_ij * b_i``.  The CTR matrix is gathered row-wise from a
        :class:`MatrixCTRModel` (one C-level conversion) or through
        ``model.ctr`` calls for any other model; the bid product is one
        vectorized broadcast, elementwise IEEE-identical to the object
        path's per-cell ``model.ctr(i, j) * a.bid``.

    The matrix is static market data (bids and CTRs, not budgets), so
    callers serving repeated auctions can build it once and hand it to
    :func:`determine_winners_nonseparable_columnar` -- that is what the
    Section V kernel benchmark measures.
    """
    model = spec.ctr_model
    k = spec.num_slots
    ads = spec.advertisers
    ids = np.fromiter(
        (a.advertiser_id for a in ads), dtype=np.int64, count=len(ads)
    )
    bids = np.fromiter(
        (a.bid for a in ads), dtype=np.float64, count=len(ads)
    )
    if isinstance(model, MatrixCTRModel):
        rows = model.rows
        ctr = np.array(
            [rows[a.advertiser_id][:k] for a in ads], dtype=np.float64
        ).reshape(len(ads), k)
    else:
        ctr = np.empty((len(ads), k), dtype=np.float64)
        for row, a in enumerate(ads):
            for j in range(k):
                ctr[row, j] = model.ctr(a.advertiser_id, j)
    return ids, ctr * bids[:, None]


def _prune_candidate_rows(
    ids: "np.ndarray", weights: "np.ndarray", num_slots: int
) -> List[int]:
    """Vectorized Section V prune: union of each slot's exact top-k rows.

    Each slot's selection is :func:`repro.core.columnar.columnar_top_k`
    over its weight column -- ``np.argpartition`` plus the boundary-tie
    expansion that reproduces ``top_k_scan``'s ``(-weight, id)``
    selection byte for byte -- so the union equals
    :func:`prune_candidates`' exactly.  Returned row indices are in
    ascending-id order, matching the object prune's candidate order
    (which fixes the Hungarian input row order, hence the assignment).
    """
    keep: Dict[int, int] = {}
    for j in range(num_slots):
        for entry in columnar_top_k(num_slots, weights[:, j], ids):
            keep.setdefault(entry.advertiser_id, 0)
    row_of = {int(advertiser_id): row for row, advertiser_id in enumerate(ids)}
    return [row_of[advertiser_id] for advertiser_id in sorted(keep)]


def determine_winners_nonseparable_columnar(
    spec: AuctionSpec,
    prune: bool = True,
    precomputed: Optional[Tuple["np.ndarray", "np.ndarray"]] = None,
) -> Allocation:
    """Vectorized non-separable winner determination (Section V).

    Exactly :func:`determine_winners_nonseparable` -- same prune gate,
    same candidate set and order, same Hungarian call on bitwise-equal
    weights -- with the graph built and pruned in array space.  The
    object path is the differential oracle
    (``tests/core/test_columnar_matching.py`` asserts allocation
    equality including ``expected_value`` bit-for-bit).

    Args:
        spec: The auction; its CTR model may be any :class:`CTRModel`.
        prune: Apply the top-k-per-slot pruning when the population
            exceeds ``k * k`` (the object path's gate).
        precomputed: Optional ``(ids, weights)`` from
            :func:`nonseparable_weight_matrix` for the same spec, so
            repeated auctions over static bids/CTRs skip the matrix
            build.
    """
    k = spec.num_slots
    if precomputed is not None:
        ids, weights = precomputed
    else:
        ids, weights = nonseparable_weight_matrix(spec)
    n = len(ids)
    if not n:
        return Allocation(tuple([None] * k), 0.0)
    if prune and n > k * k:
        candidate_rows = _prune_candidate_rows(ids, weights, k)
        ids = ids[candidate_rows]
        weights = weights[candidate_rows]
    assignment, total = hungarian_max_weight(weights.tolist())
    slots: List[int | None] = [None] * k
    for row, j in enumerate(assignment):
        if j is not None:
            slots[j] = int(ids[row])
    return Allocation(tuple(slots), total)


def brute_force_winner_determination(spec: AuctionSpec) -> Allocation:
    """Exhaustive winner determination for validation on tiny instances.

    Enumerates all one-to-one slot assignments; exponential, so only use
    with a handful of advertisers and slots.
    """
    from itertools import permutations

    model = spec.ctr_model
    k = spec.num_slots
    ads = list(spec.advertisers)
    n = len(ads)
    best_value = 0.0
    best_slots: Tuple[int | None, ...] = tuple([None] * k)
    # Choose up to min(n, k) advertisers and an injection into slots.
    indices = list(range(n))
    for r in range(0, min(n, k) + 1):
        for perm in permutations(indices, r):
            from itertools import combinations

            for slot_choice in combinations(range(k), r):
                value = 0.0
                slots: List[int | None] = [None] * k
                for ad_index, j in zip(perm, slot_choice):
                    a = ads[ad_index]
                    slots[j] = a.advertiser_id
                    value += model.ctr(a.advertiser_id, j) * a.bid
                if value > best_value:
                    best_value = value
                    best_slots = tuple(slots)
    return Allocation(best_slots, best_value)
