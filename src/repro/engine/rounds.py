"""Batching search queries into auction rounds.

Section II-B: the granularity of a round is a system-design choice.
Coarser rounds share more work between auctions but add latency; user
studies tolerate median latencies up to about 2.2 seconds.  The batcher
groups a timestamped query stream into fixed-length rounds and reports
the per-round phrase sets the shared winner-determination machinery
consumes (duplicate occurrences of a phrase within a round collapse into
one auction resolution reused for each occurrence -- the whole point of
sharing).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from repro.errors import InvalidAuctionError

__all__ = [
    "TimestampedQuery",
    "RoundBatch",
    "RoundBatcher",
    "check_count",
    "singleton_rounds",
]


def check_count(name: str, count: int) -> None:
    """Raise :class:`InvalidAuctionError` unless ``count`` -- rounds or
    queries to run -- is an int (not a ``bool``) of at least 0."""
    if isinstance(count, bool) or not isinstance(count, numbers.Integral):
        raise InvalidAuctionError(f"{name} must be an int, got {count!r}")
    if count < 0:
        raise InvalidAuctionError(f"{name} must be >= 0, got {count}")


@dataclass(frozen=True, order=True)
class TimestampedQuery:
    """A search query mapped to a bid phrase, with its arrival time.

    The query-to-phrase rewriting (the two-stage method of Radlinski et
    al. the paper assumes) happens upstream; the engine sees phrases.
    """

    arrival_time: float
    phrase: str


@dataclass(frozen=True)
class RoundBatch:
    """One round's worth of queries.

    Attributes:
        round_index: 0-based round number.
        start_time: Round start (inclusive).
        phrase_counts: Occurrences per distinct phrase in the round.
    """

    round_index: int
    start_time: float
    phrase_counts: Dict[str, int]

    @property
    def distinct_phrases(self) -> Tuple[str, ...]:
        """The distinct phrases, sorted -- one auction resolution each."""
        return tuple(sorted(self.phrase_counts))

    @property
    def total_queries(self) -> int:
        """Total queries batched into the round."""
        return sum(self.phrase_counts.values())


class RoundBatcher:
    """Groups a time-ordered query stream into fixed-length rounds.

    Args:
        round_length: Round duration in seconds.  Must be positive and
            finite.  The paper's worked example uses 2/3 s.
    """

    def __init__(self, round_length: float) -> None:
        if not (0.0 < round_length < math.inf):
            raise InvalidAuctionError(
                f"round length must be positive and finite, got {round_length}"
            )
        self.round_length = round_length

    def batch(self, queries: Iterable[TimestampedQuery]) -> Iterator[RoundBatch]:
        """Yield rounds in order; empty rounds are skipped.

        Raises:
            InvalidAuctionError: If the stream is not time-ordered or an
                arrival time is not finite.
        """
        current: Dict[str, int] = {}
        current_index = 0
        last_time = float("-inf")
        started = False
        for query in queries:
            if not math.isfinite(query.arrival_time):
                raise InvalidAuctionError(
                    f"arrival time must be finite, got {query.arrival_time}"
                )
            if query.arrival_time < last_time:
                raise InvalidAuctionError(
                    "query stream must be ordered by arrival time"
                )
            last_time = query.arrival_time
            index = int(query.arrival_time // self.round_length)
            if not started:
                current_index = index
                started = True
            if index != current_index:
                if current:
                    yield RoundBatch(
                        current_index,
                        current_index * self.round_length,
                        current,
                    )
                current = {}
                current_index = index
            current[query.phrase] = current.get(query.phrase, 0) + 1
        if current:
            yield RoundBatch(
                current_index, current_index * self.round_length, current
            )


def singleton_rounds(
    queries: Iterable[TimestampedQuery],
) -> Iterator[RoundBatch]:
    """One round per query: the ``round_length -> 0`` serving limit.

    The paper's rounds exist to amortize winner determination across
    co-occurring phrases; the serving regime gives that up for latency
    and resolves every query alone.  This adapter expresses a query
    trace in round vocabulary -- each query becomes a
    :class:`RoundBatch` with a single phrase at count 1, indexed by
    arrival order -- which is exactly how the serving differential
    suite replays a serving trace through the batch engine.  Queries
    need not be time-ordered; arrival order is the round order.
    """
    for index, query in enumerate(queries):
        yield RoundBatch(index, query.arrival_time, {query.phrase: 1})
