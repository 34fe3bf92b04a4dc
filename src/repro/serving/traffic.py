"""Seeded query traffic for the serving engine.

The batch engine samples each phrase independently per round from its
``sr_q`` search rate (Section II-B).  The serving regime needs the same
popularity structure expressed as *traffic*: individual queries arriving
one at a time.  :class:`TrafficGenerator` makes the paper's search rates
concrete as a marked Poisson process -- exponential inter-arrival gaps
at a configured rate, each arrival marked with a phrase drawn from a
Zipf popularity law over the phrase list (rank 1 = most popular), built
on the seeded distribution helpers in
:mod:`repro.workloads.distributions`.

Determinism contract: the whole trace is a pure function of
``(phrases, rate_qps, zipf_exponent, seed)``.  Every draw flows from one
``random.Random(seed)`` in a fixed order (gap, then phrase, per query),
so two generators with equal parameters yield identical arrival
sequences on any platform and ``PYTHONHASHSEED`` -- the property suite
asserts exactly this, plus the Zipf-rank monotonicity of empirical
phrase frequencies and the mean-consistency of the gaps.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator, List, Mapping, Sequence

from repro.errors import WorkloadError
from repro.workloads.distributions import (
    cumulative_weights,
    exponential_interarrival,
    sample_rank,
    zipf_weights,
)

__all__ = ["QueryArrival", "TrafficGenerator"]


@dataclass(frozen=True)
class QueryArrival:
    """One query of the serving trace.

    Attributes:
        index: 0-based arrival order.
        arrival_time: Seconds since the trace started (non-decreasing).
        phrase: The bid phrase the query resolved to (query-to-phrase
            rewriting happens upstream, as in
            :mod:`repro.engine.rounds`).
    """

    index: int
    arrival_time: float
    phrase: str


class TrafficGenerator:
    """An endless seeded stream of :class:`QueryArrival` objects.

    Args:
        phrases: The phrase universe in *popularity-rank order*: the
            first phrase gets Zipf rank 1 (most traffic).  Must be
            non-empty.
        rate_qps: Mean arrival rate of the Poisson process, queries per
            second.  Must be finite and positive.
        zipf_exponent: Popularity skew; 0 makes every phrase equally
            likely.  Must be finite and >= 0 (validated by
            :func:`repro.workloads.distributions.zipf_weights`).
        seed: Seed of the single ``random.Random`` behind the trace.

    Attributes:
        phrases: The phrase universe, rank order, as a tuple.
        weights: The normalized per-rank popularity weights (monotone
            non-increasing by construction).
        generated: Queries produced so far across all iterators.
    """

    def __init__(
        self,
        phrases: Sequence[str],
        rate_qps: float,
        zipf_exponent: float = 1.0,
        seed: int = 0,
    ) -> None:
        self.phrases = tuple(phrases)
        if not self.phrases:
            raise WorkloadError("traffic needs at least one phrase")
        if len(set(self.phrases)) != len(self.phrases):
            raise WorkloadError("traffic phrases must be distinct")
        if not 0.0 < rate_qps < math.inf:
            raise WorkloadError(
                f"arrival rate must be finite and positive, got {rate_qps}"
            )
        self.rate_qps = float(rate_qps)
        self.zipf_exponent = float(zipf_exponent)
        self.seed = seed
        self.weights = tuple(zipf_weights(len(self.phrases), zipf_exponent))
        self._cumulative = cumulative_weights(self.weights)
        self._rng = random.Random(seed)
        self._clock = 0.0
        self.generated = 0

    @classmethod
    def from_search_rates(
        cls,
        search_rates: Mapping[str, float],
        rate_qps: float,
        zipf_exponent: float = 1.0,
        seed: int = 0,
    ) -> "TrafficGenerator":
        """Rank phrases by their batch-engine search rate.

        The paper's ``sr_q`` already encodes relative popularity; this
        constructor orders the phrase universe by descending search rate
        (ties broken by phrase text for determinism) and lays the Zipf
        law over that ranking -- the serving-shaped reading of the same
        popularity structure.
        """
        ranked = sorted(search_rates, key=lambda p: (-search_rates[p], p))
        return cls(ranked, rate_qps, zipf_exponent, seed)

    def __iter__(self) -> Iterator[QueryArrival]:
        """Yield arrivals forever; use :meth:`take` for a finite trace."""
        while True:
            yield self._next()

    def _next(self) -> QueryArrival:
        # Fixed draw order -- gap first, phrase second -- is part of the
        # determinism contract; reordering would silently change traces.
        self._clock += exponential_interarrival(self._rng, self.rate_qps)
        rank = sample_rank(self._rng, self._cumulative)
        arrival = QueryArrival(self.generated, self._clock, self.phrases[rank])
        self.generated += 1
        return arrival

    def take(self, count: int) -> List[QueryArrival]:
        """The next ``count`` arrivals as a list (consumes the stream)."""
        if count < 0:
            raise WorkloadError(f"count must be >= 0, got {count}")
        return [self._next() for _ in range(count)]
