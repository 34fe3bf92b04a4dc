"""Budget uncertainty (Section IV).

Advertisers pay per click, and clicks arrive after the ad is shown, so an
advertiser's remaining budget is uncertain whenever ads are outstanding.
This package implements the paper's principled treatment:

- :mod:`repro.budgets.outstanding` -- outstanding ads, click-probability
  decay models, and the per-advertiser ledger.
- :mod:`repro.budgets.throttle` -- the throttled bid
  ``b̂_i = E[min(b_i, max(0, β_i - S_l) / m_i)]``: exact computation by
  dynamic programming over currency units (``O(l·β)``) or enumeration
  (``O(2^l)``), plus a Monte-Carlo estimator.
- :mod:`repro.budgets.hoeffding` -- interval bounds on ``Pr(S_l < x)``,
  ``E(S_l · 1[x ≤ S_l < y])``, and hence on ``b̂_i``; bounds tighten by
  *expanding out* the largest-price outstanding ads exactly.
- :mod:`repro.budgets.comparison` -- deciding ``b̂_i`` vs ``b̂_i'`` with
  successive refinement, and top-k selection under uncertainty.
- :mod:`repro.budgets.gaming` -- the Section IV gaming attack: what a
  nearly-exhausted advertiser gains when the system ignores budget
  uncertainty, and how throttling removes the exploit.
"""

from repro.budgets.comparison import (
    BoundedBid,
    compare_throttled_bids,
    top_k_throttled,
)
from repro.budgets.hoeffding import (
    Interval,
    expected_masked_sum_bounds,
    prob_sum_less_than,
    throttled_bid_bounds,
)
from repro.budgets.outstanding import (
    ExponentialDecay,
    GeometricDecay,
    NoDecay,
    OutstandingAd,
    OutstandingLedger,
)
from repro.budgets.throttle import (
    ThrottleProblem,
    exact_throttled_bid,
    monte_carlo_throttled_bid,
)

__all__ = [
    "BoundedBid",
    "ExponentialDecay",
    "GeometricDecay",
    "Interval",
    "NoDecay",
    "OutstandingAd",
    "OutstandingLedger",
    "ThrottleProblem",
    "compare_throttled_bids",
    "exact_throttled_bid",
    "expected_masked_sum_bounds",
    "monte_carlo_throttled_bid",
    "prob_sum_less_than",
    "throttled_bid_bounds",
    "top_k_throttled",
]
