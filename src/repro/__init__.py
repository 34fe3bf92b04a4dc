"""Reproduction of *Shared Winner Determination in Sponsored Search Auctions*.

This package reimplements the system described by Martin and Halpern
(ICDE 2009).  README's "What's inside" table is its census: which file
runs each module.  It provides:

- :mod:`repro.core` -- the sponsored-search auction substrate: advertisers,
  bid phrases, click-through-rate models, single-auction winner
  determination (separable and non-separable), pricing rules, the top-k
  merge operator, and the columnar store the engine's kernels run on.
- :mod:`repro.errors` -- the exception hierarchy.
- :mod:`repro.algebra` -- the abstract-aggregation-operator framework of
  Sections II-C and VII: expressions over an abstract binary operator, the
  axioms A1-A5, equivalence checking, finite magmas, and the Fig. 5
  complexity table.
- :mod:`repro.plans` -- shared top-k aggregation plans (Section II): the
  plan DAG, the expected-materialization cost model, fragment
  identification, greedy set cover, the paper's two-stage greedy planner,
  baselines, the engine's columnar fragment executor, and for Fig. 5 an
  exhaustive optimal planner, the Theorem 2/3 reductions and hash-consed
  plans for non-associative operators.
- :mod:`repro.sharedsort` -- shared sorting (Section III): the round
  rankings the engine prices, the threshold algorithm, on-demand
  merge operators with caching, the greedy shared merge-sort plan builder,
  and shared pruning of non-separable auctions (Section V).
- :mod:`repro.budgets` -- budget uncertainty (Section IV): outstanding-ad
  ledgers, exact and bounded throttled-bid computation, the Hoeffding
  bound refinement engine, bound-driven top-k, and the gaming attack.
- :mod:`repro.aggregates` -- generalized aggregate operators (Section VII).
- :mod:`repro.bidding` -- automated bidding strategies and a bidding war
  run on the engine.
- :mod:`repro.engine` -- the round-based auction engine: query batching,
  shared winner determination, budget books, and a delayed-click process.
- :mod:`repro.serving` -- query-at-a-time serving over the engine.
- :mod:`repro.reference` -- the oracle the engine is checked against.
- :mod:`repro.workloads` -- synthetic workload generators standing in for
  proprietary search/bid logs (DESIGN §3 has the substitution notes).
- :mod:`repro.metrics` -- experiment-table helpers.
- :mod:`repro.instrument` -- the metrics registry and trace ring.
- :mod:`repro.cli` and :mod:`repro.__main__` -- the ``python -m repro``
  commands.
"""

__version__ = "0.1.0"
