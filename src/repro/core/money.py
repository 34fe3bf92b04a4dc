"""The one audited dollars-to-cents conversion.

Money is integer cents everywhere below the market-definition boundary:
the Section IV exact throttle is ``O(min(2^l, β))`` *"assuming that β is
written in the lowest denomination of currency"*, and integer arithmetic
keeps the DP exact.  Advertisers, however, state bids and daily budgets
in dollars (:class:`repro.core.advertiser.Advertiser`), so every path
into the engine has to cross the dollars→cents boundary exactly once --
and every crossing must round the same way, or the same market yields
different integer books depending on which door it came through.

The conversion rounds half-cents **up** (away from zero never arises:
amounts are non-negative).  ``int(round(x * 100))`` -- the expression
this helper replaced -- uses Python's banker's rounding, under which a
$0.125 bid becomes 12¢ while a $0.135 bid becomes 14¢: whether an
advertiser's half-cent survives depended on the parity of the adjacent
cent.  Half-up is the convention actual ad platforms and ledgers use,
and it is monotone: a strictly higher dollar amount never converts to a
lower cent amount.
"""

from __future__ import annotations

import math
import numbers
from typing import Collection, Container, Iterable, List, Tuple

from repro.errors import BudgetError, InvalidAuctionError

__all__ = [
    "UNBUDGETED_CENTS",
    "check_bid_cents",
    "check_cents",
    "checked_bid_update",
    "dollars_to_cents",
]

INT64_MAX = 2**63 - 1
"""The largest cent amount a store column (int64) holds."""

UNBUDGETED_CENTS = 10**12
"""The constant remaining budget of an advertiser without one (its
``β = ∞`` never throttles a bid and always charges a click in full)."""


def dollars_to_cents(dollars: float) -> int:
    """Convert a non-negative dollar amount to integer cents, half-up.

    ``dollars_to_cents(0.125) == 13`` (banker's rounding would give 12).
    Values within one part in 10⁹ of a half-cent boundary are treated as
    sitting *on* the boundary, so amounts like ``0.145`` that decimal
    notation cannot represent exactly in binary (it is stored as
    ``0.14499999...``) still round up the way the advertiser wrote them.

    Raises:
        InvalidAuctionError: If ``dollars`` is negative, NaN, or infinite
            (infinite budgets are modeled by *omitting* the budget, not
            by converting infinity), or if its cents do not fit the
            int64 columns they are stored in.
    """
    if math.isnan(dollars) or math.isinf(dollars):
        raise InvalidAuctionError(
            f"cannot convert {dollars!r} to cents; unbudgeted advertisers "
            "are modeled by omission, not by converting infinity"
        )
    if dollars < 0.0:
        raise InvalidAuctionError(
            f"money amounts must be non-negative, got {dollars!r}"
        )
    # The 1e-9 nudge absorbs binary representation error: the float
    # stored for a decimal literal like 0.145 is 14.499999999999998
    # cents, a hair *below* the half-cent boundary its author wrote, and
    # without the nudge it would round down instead of up.  No bid or
    # budget is ever specified to a precision where a true value within
    # 1e-11 dollars of a half-cent boundary means anything different.
    cents = int(math.floor(dollars * 100.0 + 0.5 + 1e-9))
    if cents > INT64_MAX:
        raise InvalidAuctionError(
            f"{dollars!r} dollars does not fit int64 cents"
        )
    return cents


def check_bid_cents(cents: int, widest: int) -> None:
    """Refuse a bid that is not ``int`` cents (``bool`` is not) with
    ``0 <= cents * widest < 2**53``, ``widest`` the number of phrases:
    the engine's ``m·cap`` must stay an exact float64."""
    widest = max(1, widest)
    if (
        isinstance(cents, bool)
        or not isinstance(cents, numbers.Integral)
        or not 0 <= int(cents) * widest < 2**53
    ):
        raise InvalidAuctionError(
            f"bid {cents!r} is not int cents in [0, 2**53 / {widest})"
        )


def check_cents(amounts: Collection[int], what: str) -> None:
    """Refuse a batch of budgets or prices unless every amount is
    ``int`` cents (``bool`` is not) and ``>= 0``, before any is booked.

    One pass over the batch's types (normally just ``int``) and one
    ``min``.

    Raises:
        BudgetError: On a float (NaN and infinity included), a ``bool``
            or a negative amount.
    """
    for kind in set(map(type, amounts)):
        if kind is not int and (
            kind is bool or not issubclass(kind, numbers.Integral)
        ):
            raise BudgetError(f"{what} must be int cents, got a {kind.__name__}")
    if amounts and min(amounts) < 0:
        raise BudgetError(f"{what} must be >= 0, got {min(amounts)}")


def checked_bid_update(
    ids: Iterable[int], bid_cents: Iterable[int], known: Container[int], widest: int
) -> Tuple[List[int], List[int]]:
    """Check a whole ``set_bids`` batch -- known ids, each named once, bids
    passing :func:`check_bid_cents` -- before any of it is written."""
    ids, bid_cents = list(ids), list(bid_cents)
    if len(ids) != len(bid_cents) or len(set(ids)) != len(ids):
        raise InvalidAuctionError(f"bad bid update {ids!r} -> {bid_cents!r}")
    for advertiser_id, cents in zip(ids, bid_cents):
        if advertiser_id not in known:
            raise InvalidAuctionError(f"unknown advertiser {advertiser_id!r}")
        check_bid_cents(cents, widest)
    return ids, [int(cents) for cents in bid_cents]
