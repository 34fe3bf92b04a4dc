"""Tests for round batching."""

from __future__ import annotations

import pytest

from repro.engine.rounds import RoundBatcher, TimestampedQuery
from repro.errors import InvalidAuctionError


def q(t, phrase):
    return TimestampedQuery(t, phrase)


class TestRoundBatcher:
    def test_rejects_non_positive_length(self):
        with pytest.raises(InvalidAuctionError):
            RoundBatcher(0.0)

    @pytest.mark.parametrize("length", [float("nan"), float("inf")])
    def test_rejects_non_finite_length(self, length):
        with pytest.raises(InvalidAuctionError, match="finite"):
            RoundBatcher(length)

    def test_rejects_non_finite_arrival_time(self):
        batcher = RoundBatcher(1.0)
        with pytest.raises(InvalidAuctionError, match="finite"):
            list(batcher.batch([q(0.5, "a"), q(float("nan"), "b")]))

    def test_groups_by_round_boundary(self):
        batcher = RoundBatcher(1.0)
        rounds = list(
            batcher.batch([q(0.1, "a"), q(0.9, "b"), q(1.1, "a"), q(2.5, "c")])
        )
        assert [r.round_index for r in rounds] == [0, 1, 2]
        assert rounds[0].phrase_counts == {"a": 1, "b": 1}
        assert rounds[1].phrase_counts == {"a": 1}
        assert rounds[2].phrase_counts == {"c": 1}

    def test_duplicates_collapse_with_counts(self):
        batcher = RoundBatcher(2.0)
        (batch,) = batcher.batch([q(0.0, "a"), q(0.5, "a"), q(1.0, "b")])
        assert batch.phrase_counts == {"a": 2, "b": 1}
        assert batch.distinct_phrases == ("a", "b")
        assert batch.total_queries == 3

    def test_empty_rounds_skipped(self):
        batcher = RoundBatcher(1.0)
        rounds = list(batcher.batch([q(0.5, "a"), q(5.5, "b")]))
        assert [r.round_index for r in rounds] == [0, 5]

    def test_unordered_stream_rejected(self):
        batcher = RoundBatcher(1.0)
        with pytest.raises(InvalidAuctionError):
            list(batcher.batch([q(1.0, "a"), q(0.5, "b")]))

    def test_empty_stream(self):
        assert list(RoundBatcher(1.0).batch([])) == []

    def test_start_time_reported(self):
        batcher = RoundBatcher(0.5)
        (batch,) = batcher.batch([q(1.3, "a")])
        assert batch.round_index == 2
        assert batch.start_time == pytest.approx(1.0)

    def test_paper_round_length(self):
        """2/3-second rounds: ~1 music query per 1/3 s gives ~2 per round."""
        batcher = RoundBatcher(2 / 3)
        queries = [q(i / 3, "music") for i in range(12)]  # 4 seconds
        batches = list(batcher.batch(queries))
        assert all(b.phrase_counts["music"] == 2 for b in batches)
