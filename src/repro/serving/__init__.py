"""Query-at-a-time serving on top of the shared winner-determination core.

The batch engine (:mod:`repro.engine`) amortizes winner determination
across co-occurring phrases in synchronous rounds; this package serves
the same auctions the way live traffic asks for them -- one query at a
time, with clicks settling against the budget books asynchronously; a
query is a round of one phrase, ranked by the same scan in every mode:

- :mod:`repro.serving.traffic` -- seeded Poisson/Zipf query traffic
  (the paper's ``sr_q`` search rates made concrete);
- :mod:`repro.serving.latency` -- exact nearest-rank p50/p99 latency
  accounting and sustained-QPS summaries;
- :mod:`repro.serving.loop` -- the serving loop itself, provably
  outcome-equivalent to single-phrase batch rounds (the 50-seed
  differential suite in ``tests/serving`` is the proof obligation).
"""

from repro.serving.latency import (
    LatencyRecorder,
    LatencySummary,
    nearest_rank_percentile,
)
from repro.serving.loop import QueryReport, ServingEngine, ServingReport
from repro.serving.traffic import QueryArrival, TrafficGenerator

__all__ = [
    "LatencyRecorder",
    "LatencySummary",
    "QueryArrival",
    "QueryReport",
    "ServingEngine",
    "ServingReport",
    "TrafficGenerator",
    "nearest_rank_percentile",
]
