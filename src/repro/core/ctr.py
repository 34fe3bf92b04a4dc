"""Click-through-rate models.

The paper's central modeling assumption (Section II-A) is *separability*:
the probability that advertiser ``i``'s ad is clicked when shown in slot
``j`` factors as ``ctr_ij = c_i * d_j`` where ``c_i`` depends only on the
advertiser and ``d_j`` only on the slot.  :class:`SeparableCTRModel`
implements that; :class:`MatrixCTRModel` holds an arbitrary (possibly
non-separable) matrix, used by the Section V winner-determination path.

The module also provides :func:`is_separable`, which tests whether a
matrix admits a rank-one factorization, and
:func:`separable_factors`, which recovers the ``c_i`` / ``d_j`` factors of
a separable matrix (up to the usual scaling ambiguity, resolved by
normalizing ``d_1 = ctr_11 / c_1`` with ``c_1 = 1``... see the function
docstring for the exact convention).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Protocol, Sequence, Tuple

from repro.errors import InvalidAuctionError

__all__ = [
    "CTRModel",
    "SeparableCTRModel",
    "MatrixCTRModel",
    "is_separable",
    "separable_factors",
]


class CTRModel(Protocol):
    """Protocol for click-through-rate models.

    A CTR model answers one question: the probability that a given
    advertiser's ad is clicked when displayed in a given slot.
    """

    def ctr(self, advertiser_id: int, slot: int) -> float:
        """Return ``ctr_ij`` for advertiser ``advertiser_id`` in ``slot``.

        Slots are 0-indexed here (the paper uses 1-indexed slots).
        """
        ...

    @property
    def num_slots(self) -> int:
        """Number of advertisement slots ``k`` on the result page."""
        ...


@dataclass(frozen=True)
class SeparableCTRModel:
    """Separable click-through rates: ``ctr_ij = c_i * d_j``.

    Attributes:
        advertiser_factors: Mapping from advertiser id to ``c_i``.
        slot_factors: Sequence of ``d_j`` values, one per slot.  The paper
            assumes slots are ordered so that slot ``j`` has the ``j``-th
            highest ``d_j``; the constructor enforces a non-increasing
            order because winner determination relies on it.
    """

    advertiser_factors: Mapping[int, float]
    slot_factors: Tuple[float, ...]

    def __init__(
        self,
        advertiser_factors: Mapping[int, float],
        slot_factors: Sequence[float],
    ) -> None:
        factors = tuple(float(d) for d in slot_factors)
        if not factors:
            raise InvalidAuctionError("at least one slot factor is required")
        if any(not 0.0 <= d <= 1.0 for d in factors):
            raise InvalidAuctionError(f"slot factors must be in [0, 1]: {factors!r}")
        if any(factors[j] < factors[j + 1] for j in range(len(factors) - 1)):
            raise InvalidAuctionError(
                "slot factors must be non-increasing (slot 1 is most clickable); "
                f"got {factors!r}"
            )
        if any(not 0.0 <= c < math.inf for c in advertiser_factors.values()):
            raise InvalidAuctionError(
                "advertiser factors must be finite and non-negative"
            )
        object.__setattr__(self, "advertiser_factors", dict(advertiser_factors))
        object.__setattr__(self, "slot_factors", factors)

    @property
    def num_slots(self) -> int:
        """Number of advertisement slots ``k``."""
        return len(self.slot_factors)

    def ctr(self, advertiser_id: int, slot: int) -> float:
        """Return ``c_i * d_j`` (0-indexed slot)."""
        if not 0 <= slot < len(self.slot_factors):
            raise InvalidAuctionError(
                f"slot {slot} out of range for {len(self.slot_factors)} slots"
            )
        try:
            c_i = self.advertiser_factors[advertiser_id]
        except KeyError:
            raise InvalidAuctionError(
                f"no CTR factor known for advertiser {advertiser_id}"
            ) from None
        return c_i * self.slot_factors[slot]

    def advertiser_factor(self, advertiser_id: int) -> float:
        """Return ``c_i`` for an advertiser."""
        try:
            return self.advertiser_factors[advertiser_id]
        except KeyError:
            raise InvalidAuctionError(
                f"no CTR factor known for advertiser {advertiser_id}"
            ) from None

    def as_matrix(self, advertiser_ids: Sequence[int]) -> "MatrixCTRModel":
        """Materialize the separable model as an explicit matrix model.

        Useful for cross-checking the separable winner-determination path
        against the general non-separable path in tests.
        """
        rows = {
            i: tuple(self.advertiser_factors[i] * d for d in self.slot_factors)
            for i in advertiser_ids
        }
        return MatrixCTRModel(rows)


@dataclass(frozen=True)
class MatrixCTRModel:
    """Explicit per-(advertiser, slot) click-through rates.

    Attributes:
        rows: Mapping from advertiser id to the tuple
            ``(ctr_i1, ..., ctr_ik)``.  All rows must have the same length.
    """

    rows: Mapping[int, Tuple[float, ...]]

    def __init__(self, rows: Mapping[int, Sequence[float]]) -> None:
        if not rows:
            raise InvalidAuctionError("matrix CTR model needs at least one row")
        converted = {i: tuple(float(x) for x in row) for i, row in rows.items()}
        lengths = {len(row) for row in converted.values()}
        if len(lengths) != 1:
            raise InvalidAuctionError(
                f"all CTR rows must have the same number of slots, got {lengths!r}"
            )
        for i, row in converted.items():
            if any(not 0.0 <= x <= 1.0 for x in row):
                raise InvalidAuctionError(
                    f"CTRs must be probabilities in [0, 1]; row {i} is {row!r}"
                )
        object.__setattr__(self, "rows", converted)

    @property
    def num_slots(self) -> int:
        """Number of advertisement slots ``k``."""
        return len(next(iter(self.rows.values())))

    def ctr(self, advertiser_id: int, slot: int) -> float:
        """Return ``ctr_ij`` (0-indexed slot)."""
        try:
            row = self.rows[advertiser_id]
        except KeyError:
            raise InvalidAuctionError(
                f"no CTR row known for advertiser {advertiser_id}"
            ) from None
        if not 0 <= slot < len(row):
            raise InvalidAuctionError(
                f"slot {slot} out of range for {len(row)} slots"
            )
        return row[slot]


def is_separable(model: MatrixCTRModel, tolerance: float = 1e-9) -> bool:
    """Return whether a CTR matrix is separable (rank one).

    A matrix ``ctr_ij`` is separable iff every 2x2 minor vanishes:
    ``ctr_ij * ctr_i'j' == ctr_ij' * ctr_i'j`` for all advertiser pairs
    ``i, i'`` and slot pairs ``j, j'``.  Comparing every pair against a
    fixed reference row/column suffices.

    Args:
        model: The matrix to test.
        tolerance: Absolute tolerance for the minor test, scaled by the
            magnitude of the entries involved.
    """
    ids = sorted(model.rows)
    k = model.num_slots
    ref = ids[0]
    for i in ids[1:]:
        for j in range(k):
            for j2 in range(j + 1, k):
                lhs = model.ctr(ref, j) * model.ctr(i, j2)
                rhs = model.ctr(ref, j2) * model.ctr(i, j)
                scale = max(1.0, abs(lhs), abs(rhs))
                if abs(lhs - rhs) > tolerance * scale:
                    return False
    return True


def separable_factors(
    model: MatrixCTRModel, tolerance: float = 1e-9
) -> SeparableCTRModel:
    """Recover separable factors ``c_i``, ``d_j`` from a rank-one matrix.

    The factorization is unique only up to scaling ``(c_i / t, d_j * t)``.
    We fix the convention that ``max_j d_j`` equals the largest entry of
    the row with the largest leading entry, i.e. we scale so that
    ``c = row_max / d_max`` keeps all ``d_j <= 1``.  Concretely we set
    ``d_j`` to the first nonzero row normalized so its maximum is the
    matrix's maximum first-column share -- see the implementation; tests
    only rely on ``c_i * d_j`` reproducing the matrix.

    Raises:
        InvalidAuctionError: If the matrix is not separable within
            ``tolerance``, or is identically zero.
    """
    if not is_separable(model, tolerance=tolerance):
        raise InvalidAuctionError("CTR matrix is not separable")
    ids = sorted(model.rows)
    k = model.num_slots
    # Find a reference row with a nonzero entry to define the slot profile.
    ref_row = None
    for i in ids:
        if any(model.ctr(i, j) > tolerance for j in range(k)):
            ref_row = i
            break
    if ref_row is None:
        raise InvalidAuctionError("cannot factor an all-zero CTR matrix")
    ref = [model.ctr(ref_row, j) for j in range(k)]
    ref_max = max(ref)
    # Normalize slot factors so the largest is <= 1 and equals ref_max /
    # ref_max = 1 scaled back by the advertiser factor of the reference row.
    d = tuple(x / ref_max for x in ref)
    c: dict[int, float] = {}
    # c_i = ctr_ij / d_j evaluated at the slot where d_j is largest.
    j_star = ref.index(ref_max)
    for i in ids:
        c[i] = model.ctr(i, j_star) / d[j_star]
    # Slot factors must be non-increasing for SeparableCTRModel; if not,
    # the matrix is a valid rank-one CTR but with shuffled slot quality.
    order = sorted(range(k), key=lambda j: -d[j])
    if order != list(range(k)):
        raise InvalidAuctionError(
            "separable factors recovered, but slot factors are not "
            "non-increasing; reorder slots by clickability first"
        )
    return SeparableCTRModel(c, d)
