"""Tests for the delayed click model."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.advertiser import Advertiser
from repro.engine.click_model import DelayedClickModel
from repro.engine.pipeline import SharedAuctionEngine
from repro.errors import InvalidAuctionError
from repro.reference import ReferenceEngine

EITHER_ENGINE = pytest.mark.parametrize(
    "build", (ReferenceEngine, SharedAuctionEngine), ids=("reference", "engine")
)


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
            model().record_display(1, 10, 1.5, 0)

    @pytest.mark.parametrize("mean", (float("nan"), float("inf")))
    def test_non_finite_mean_rejected(self, mean):
        with pytest.raises(InvalidAuctionError, match="finite"):
            model(mean=mean)

    @pytest.mark.parametrize("horizon", (2.5, 4.0, True, "4"))
    def test_non_int_horizon_rejected(self, horizon):
        with pytest.raises(InvalidAuctionError, match="must be an int"):
            model(horizon=horizon)


def _engine(build, **kwargs):
    advertisers = [
        Advertiser(1, 1.0, 0.5, 5.0, {"shoes"}),
        Advertiser(2, 0.8, 0.6, 5.0, {"shoes"}),
    ]
    return build(advertisers, [0.5], {"shoes": 1.0}, seed=1, **kwargs)


class TestEnginesRefuseBadClickParameters:
    """Both engines hand their click parameters to the click model at
    construction: a bad one stops the engine before any round."""

    @EITHER_ENGINE
    @pytest.mark.parametrize("mean", (float("nan"), float("inf"), -1.0))
    def test_bad_mean_delay(self, build, mean):
        with pytest.raises(InvalidAuctionError, match="mean delay"):
            _engine(build, mean_click_delay_rounds=mean)

    @EITHER_ENGINE
    @pytest.mark.parametrize("horizon", (2.5, 16.0, True, 0))
    def test_bad_click_horizon(self, build, horizon):
        with pytest.raises(InvalidAuctionError, match="click horizon"):
            _engine(build, click_horizon_rounds=horizon)

    @EITHER_ENGINE
    def test_good_parameters_run(self, build):
        engine = _engine(
            build, mean_click_delay_rounds=0.0, click_horizon_rounds=1
        )
        assert engine.run(5).displays == 5


class TestSampling:
    def test_ctr_zero_never_clicks(self):
        m = model()
        for i in range(100):
            assert not m.record_display(i, 10, 0.0, 0)
        assert m.pending_count == 0

    def test_ctr_one_always_schedules(self):
        m = model(mean=0.0)
        for i in range(50):
            assert m.record_display(i, 10, 1.0, 0)
        assert m.pending_count == 50

    def test_zero_mean_delay_arrives_next_round(self):
        m = model(mean=0.0)
        m.record_display(1, 10, 1.0, 5, ledger_handle=3)
        assert m.arrivals(5) == []
        assert m.arrivals(6) == [(1, 10, 5, 3)]

    def test_arrivals_pop_in_order(self):
        m = model(mean=0.0)
        m.record_display(2, 10, 1.0, 0)
        m.record_display(1, 10, 1.0, 0)
        clicks = m.arrivals(10)
        assert [advertiser_id for advertiser_id, *_ in clicks] == [1, 2]
        assert m.pending_count == 0

    def test_flush_returns_everything(self):
        m = model(mean=3.0)
        scheduled = sum(
            m.record_display(i, 10, 1.0, 0) for i in range(30)
        )
        flushed = m.flush()
        assert m.pending_count == 0
        # Clicks whose sampled delay exceeded the horizon were dropped at
        # record time; everything else must be flushed.
        assert len(flushed) == scheduled
        assert scheduled > 0

    def test_deterministic_by_seed(self):
        a, b = model(seed=3), model(seed=3)
        outcomes_a = [a.record_display(i, 10, 0.5, 0) for i in range(50)]
        outcomes_b = [b.record_display(i, 10, 0.5, 0) for i in range(50)]
        assert outcomes_a == outcomes_b

    def test_click_rate_roughly_ctr(self):
        m = model(seed=11)
        clicks = sum(
            m.record_display(i, 10, 0.3, 0) for i in range(3000)
        )
        assert 0.25 < clicks / 3000 < 0.35

    def test_delays_within_horizon(self):
        m = model(mean=4.0, horizon=6, seed=2)
        for i in range(300):
            m.record_display(i, 10, 1.0, 0)
        scheduled = m.pending_count
        # Delays past the horizon were dropped; the rest arrive by it.
        assert 0 < scheduled < 300
        assert m.arrivals(0) == []
        assert len(m.arrivals(6)) == scheduled
        assert m.pending_count == 0


class _ListPending:
    """The pending store this model replaced: one list of ``(arrival,
    row)``, walked (twice) and sorted on every poll.  Kept as the
    lockstep reference."""

    def __init__(self):
        self.pending = []

    def arrivals(self, round_index):
        due = [c for c in self.pending if c[0] <= round_index]
        self.pending = [c for c in self.pending if c[0] > round_index]
        return self._rows(due)

    def flush(self):
        due, self.pending = self.pending, []
        return self._rows(due)

    @staticmethod
    def _rows(due):
        return [row for _, row in sorted(due, key=lambda c: (c[0], c[1][0]))]


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
        # the reference the click the model under test just scheduled,
        # and its one bucket's key is the click's arrival round.
        sampler = DelayedClickModel(mean, 6, random.Random(seed))
        reference = _ListPending()
        round_index = 0
        serial = 0
        for step, argument in steps:
            if step == "display":
                for advertiser_id in argument:
                    # The handle is a serial number: two clicks of one
                    # advertiser arriving together stay told apart.
                    display = (advertiser_id, 10, 0.9, round_index, serial)
                    scheduled = m.record_display(*display)
                    sampler.record_display(*display)
                    arrival = list(sampler._pending)
                    sampled = sampler.flush()
                    assert scheduled == bool(sampled)
                    reference.pending += zip(arrival, sampled)
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


# A batch row is (advertiser_id, price_cents, ctr, ledger_handle); CTRs
# of exactly 0 and 1 take the two ends of the click draw.
_rows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=1, max_value=200),
        st.sampled_from((0.0, 0.05, 0.5, 0.9, 1.0)),
        st.integers(min_value=-1, max_value=50),
    ),
    max_size=30,
)


def _columns(rows):
    """The four parallel columns ``record_displays`` takes."""
    return [list(column) for column in zip(*rows)] if rows else [[]] * 4


def _state(m):
    """Everything a call may move: the pending rows and the stream."""
    return (
        {key: list(bucket) for key, bucket in m._pending.items()},
        list(m._rounds),
        m._rng.getstate(),
    )


class TestBatchEqualsOneByOne:
    """``record_displays`` is ``record_display`` per row, in order: the
    same draws from the same stream, the same rows in the same buckets."""

    @settings(max_examples=150, deadline=None)
    @given(
        batches=st.lists(_rows, max_size=4),
        seed=st.integers(min_value=0, max_value=10_000),
        mean=st.sampled_from((0.0, 1.0, 3.0)),
        horizon=st.sampled_from((1, 2, 6)),
    )
    def test_same_rows_order_and_stream(self, batches, seed, mean, horizon):
        batched = DelayedClickModel(mean, horizon, random.Random(seed))
        single = DelayedClickModel(mean, horizon, random.Random(seed))
        for index, rows in enumerate(batches):
            display_round = 2 * index
            scheduled = batched.record_displays(display_round, *_columns(rows))
            assert scheduled == sum(
                single.record_display(a, p, c, display_round, h)
                for a, p, c, h in rows
            )
            assert _state(batched) == _state(single)
            assert batched.arrivals(display_round + 1) == single.arrivals(
                display_round + 1
            )
        assert batched.flush() == single.flush()
        assert batched._rng.getstate() == single._rng.getstate()

    @pytest.mark.parametrize("mean", (1.0, 3.0))
    def test_delays_past_the_horizon_are_dropped_alike(self, mean):
        rows = [(i % 5, 10, 1.0, i) for i in range(200)]
        batched = DelayedClickModel(mean, 1, random.Random(4))
        single = DelayedClickModel(mean, 1, random.Random(4))
        scheduled = batched.record_displays(7, *_columns(rows))
        assert 0 < scheduled < len(rows)
        assert scheduled == sum(
            single.record_display(a, p, c, 7, h) for a, p, c, h in rows
        )
        assert _state(batched) == _state(single)
        assert list(batched._pending) == [8]
        assert batched.flush() == single.flush()

    @settings(max_examples=100, deadline=None)
    @given(
        data=st.data(),
        seed=st.integers(min_value=0, max_value=10_000),
        bad=st.sampled_from((-0.01, 1.5, float("nan"), float("inf"))),
    )
    def test_a_bad_ctr_anywhere_schedules_nothing(self, data, seed, bad):
        m = DelayedClickModel(1.0, 6, random.Random(seed))
        m.record_displays(0, *_columns(data.draw(_rows)))
        before = _state(m)
        rows = data.draw(_rows)
        rows.insert(
            data.draw(st.integers(min_value=0, max_value=len(rows))),
            (1, 10, bad, -1),
        )
        with pytest.raises(InvalidAuctionError):
            m.record_displays(1, *_columns(rows))
        assert _state(m) == before

    @settings(max_examples=100, deadline=None)
    @given(
        data=st.data(),
        seed=st.integers(min_value=0, max_value=10_000),
        short=st.integers(min_value=0, max_value=3),
    )
    def test_ragged_columns_schedule_nothing(self, data, seed, short):
        m = DelayedClickModel(0.0, 6, random.Random(seed))
        m.record_displays(0, *_columns(data.draw(_rows)))
        before = _state(m)
        columns = _columns(data.draw(_rows.filter(bool)))
        columns[short] = columns[short][:-1]
        with pytest.raises(InvalidAuctionError):
            m.record_displays(1, *columns)
        assert _state(m) == before
