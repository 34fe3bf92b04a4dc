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

from repro.errors import InvalidAuctionError

__all__ = ["dollars_to_cents"]

INT64_MAX = 2**63 - 1
"""The largest cent amount a store column (int64) holds."""


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
