"""Shared top-k aggregation plans (Section II of the paper).

The shared-aggregation problem: given a set of aggregate queries, each a
set of variables (the advertisers interested in one bid phrase) with a
search rate, build a DAG of binary ``⊕`` nodes computing every query while
minimizing the *expected number of nodes materialized per round*.

Modules:

- :mod:`repro.plans.instance` -- queries and problem instances.
- :mod:`repro.plans.dag` -- the plan DAG and its structural validation.
- :mod:`repro.plans.cost` -- the expected-materialization cost model.
- :mod:`repro.plans.fragments` -- stage 1 of the heuristic: grouping
  variables by the exact set of queries they appear in.
- :mod:`repro.plans.set_cover` -- greedy and exact set cover.
- :mod:`repro.plans.varsets` -- interned variable-set bitmasks (the
  planner hot path's representation).
- :mod:`repro.plans.greedy_planner` -- the paper's two-stage heuristic.
- :mod:`repro.plans.baselines` -- no-sharing and fragment-only planners.
- :mod:`repro.plans.optimal` -- exhaustive optimal planning (small n).
- :mod:`repro.plans.reductions` -- the Theorem 2/3 set-cover reductions.
- :mod:`repro.plans.executor` -- runs a plan on live bids each round.
- :mod:`repro.plans.columnar_exec` -- vectorized fragment-level
  execution over a columnar store (no plan DAG).
"""
