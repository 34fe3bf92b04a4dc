"""Synthetic workload generators.

The paper's data (production query logs and advertiser bids) is
proprietary; these generators are the documented substitution (see
DESIGN.md): they produce advertiser populations, phrase popularity, and
query-to-phrase interest structure with controllable overlap, which is
all the sharing machinery observes.

- :mod:`repro.workloads.distributions` -- seeded Zipf and log-normal
  helpers.
- :mod:`repro.workloads.generator` -- category-structured markets.
- :mod:`repro.workloads.fig4` -- the exact protocol of the paper's
  Fig. 4 (coin-flip query membership over 20 advertisers).
- :mod:`repro.workloads.scenarios` -- the worked examples from the text
  (Figures 1-3 and the shoe-store example of Section II-B).
"""
