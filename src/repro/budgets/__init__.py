"""Budget uncertainty (Section IV).

Advertisers pay per click, and clicks arrive after the ad is shown, so an
advertiser's remaining budget is uncertain whenever ads are outstanding.
This package implements the paper's principled treatment:

- :mod:`repro.budgets.outstanding` -- outstanding ads and the
  per-advertiser ledger; an ad owes its price with its display CTR
  until a horizon, and nothing after.
- :mod:`repro.budgets.throttle` -- the throttled bid
  ``b̂_i = E[min(b_i, max(0, β_i - S_l) / m_i)]``: exact computation by
  dynamic programming over currency units (``O(l·β)``) or enumeration
  (``O(2^l)``), plus a Monte-Carlo estimator.
- :mod:`repro.budgets.hoeffding` -- interval bounds on ``Pr(S_l < x)``,
  ``E(S_l · 1[x ≤ S_l < y])``, and hence on ``b̂_i``; bounds tighten by
  *expanding out* the largest-price outstanding ads exactly.
- :mod:`repro.budgets.comparison` -- deciding ``b̂_i`` vs ``b̂_i'`` with
  successive refinement, and top-k selection under uncertainty.
- :mod:`repro.budgets.gaming` -- the Section IV gaming attack's
  markets, run on the engine: what a nearly-exhausted advertiser gains
  when the system ignores budget uncertainty, and how throttling removes
  the exploit.
"""
