"""Tests for the delayed click model."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.click_model import DelayedClickModel
from repro.errors import InvalidAuctionError


def model(mean=1.0, horizon=8, seed=0):
    return DelayedClickModel(mean, horizon, random.Random(seed))


class TestValidation:
    def test_negative_mean_rejected(self):
        with pytest.raises(InvalidAuctionError):
            model(mean=-1.0)

    def test_non_positive_horizon_rejected(self):
        with pytest.raises(InvalidAuctionError):
            model(horizon=0)

    def test_bad_ctr_rejected(self):
        with pytest.raises(InvalidAuctionError):
            model().record_display(1, "p", 10, 1.5, 0)


class TestSampling:
    def test_ctr_zero_never_clicks(self):
        m = model()
        for i in range(100):
            assert not m.record_display(i, "p", 10, 0.0, 0)
        assert m.pending_count == 0

    def test_ctr_one_always_schedules(self):
        m = model(mean=0.0)
        for i in range(50):
            assert m.record_display(i, "p", 10, 1.0, 0)
        assert m.pending_count == 50

    def test_zero_mean_delay_arrives_next_round(self):
        m = model(mean=0.0)
        m.record_display(1, "p", 10, 1.0, 5)
        assert m.arrivals(5) == []
        (click,) = m.arrivals(6)
        assert click.arrival_round == 6
        assert click.display_round == 5

    def test_arrivals_pop_in_order(self):
        m = model(mean=0.0)
        m.record_display(2, "p", 10, 1.0, 0)
        m.record_display(1, "p", 10, 1.0, 0)
        clicks = m.arrivals(10)
        assert [c.advertiser_id for c in clicks] == [1, 2]
        assert m.pending_count == 0

    def test_flush_returns_everything(self):
        m = model(mean=3.0)
        scheduled = sum(
            m.record_display(i, "p", 10, 1.0, 0) for i in range(30)
        )
        flushed = m.flush()
        assert m.pending_count == 0
        # Clicks whose sampled delay exceeded the horizon were dropped at
        # record time; everything else must be flushed.
        assert len(flushed) == scheduled
        assert scheduled > 0

    def test_deterministic_by_seed(self):
        a, b = model(seed=3), model(seed=3)
        outcomes_a = [a.record_display(i, "p", 10, 0.5, 0) for i in range(50)]
        outcomes_b = [b.record_display(i, "p", 10, 0.5, 0) for i in range(50)]
        assert outcomes_a == outcomes_b

    def test_click_rate_roughly_ctr(self):
        m = model(seed=11)
        clicks = sum(
            m.record_display(i, "p", 10, 0.3, 0) for i in range(3000)
        )
        assert 0.25 < clicks / 3000 < 0.35

    def test_delays_within_horizon(self):
        m = model(mean=4.0, horizon=6, seed=2)
        for i in range(300):
            m.record_display(i, "p", 10, 1.0, 0)
        for click in m.flush():
            assert 1 <= click.arrival_round <= 6


class _ListPending:
    """The pending store this model replaced: one list, walked (twice)
    and sorted on every poll.  Kept as the lockstep reference."""

    def __init__(self):
        self.pending = []

    def arrivals(self, round_index):
        due = [c for c in self.pending if c.arrival_round <= round_index]
        self.pending = [
            c for c in self.pending if c.arrival_round > round_index
        ]
        return sorted(due, key=lambda c: (c.arrival_round, c.advertiser_id))

    def flush(self):
        due, self.pending = self.pending, []
        return sorted(due, key=lambda c: (c.arrival_round, c.advertiser_id))


# A program is a list of steps: display n ads at the current round
# (ids repeat, so ties on (arrival_round, advertiser_id) happen and the
# scheduling order must break them), advance the round by a gap (gaps
# above 1 skip rounds), poll, or flush.
_steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("display"),
            st.lists(st.integers(min_value=0, max_value=4), max_size=12),
        ),
        st.tuples(st.just("advance"), st.integers(min_value=0, max_value=5)),
        st.tuples(st.just("poll"), st.just(None)),
        st.tuples(st.just("flush"), st.just(None)),
    ),
    max_size=40,
)


class TestBucketsMatchTheListWalk:
    @settings(max_examples=150, deadline=None)
    @given(
        steps=_steps,
        seed=st.integers(min_value=0, max_value=10_000),
        mean=st.sampled_from((0.0, 1.0, 3.0)),
    )
    def test_same_events_in_the_same_order(self, steps, seed, mean):
        m = DelayedClickModel(mean, 6, random.Random(seed))
        # Same seed, same calls, emptied after every display: it hands
        # the reference the event the model under test just scheduled.
        sampler = DelayedClickModel(mean, 6, random.Random(seed))
        reference = _ListPending()
        round_index = 0
        serial = 0
        for step, argument in steps:
            if step == "display":
                for advertiser_id in argument:
                    # The handle is a serial number: two clicks of one
                    # advertiser arriving together stay told apart.
                    display = (advertiser_id, "p", 10, 0.9, round_index, serial)
                    scheduled = m.record_display(*display)
                    sampler.record_display(*display)
                    sampled = sampler.flush()
                    assert scheduled == bool(sampled)
                    reference.pending += sampled
                    serial += 1
            elif step == "advance":
                round_index += argument
            elif step == "poll":
                assert m.arrivals(round_index) == reference.arrivals(
                    round_index
                )
            else:
                assert m.flush() == reference.flush()
            assert m.pending_count == len(reference.pending)
        assert m.flush() == reference.flush()
        assert m.pending_count == 0
