"""Tests for bidding strategies and the bidding-war harness."""

from __future__ import annotations

import inspect

import pytest

from repro.bidding.runner import BiddingWar
from repro.bidding.strategies import (
    BudgetPacing,
    OutbidCompetitor,
    RoundObservation,
    StaticBid,
    TargetSlot,
)
from repro.core.money import dollars_to_cents
from repro.engine.pipeline import SharedAuctionEngine
from repro.errors import InvalidAuctionError


def observe(
    my_slot=None,
    ranking=(),
    my_bid=1.0,
    my_spend=0.0,
    round_index=0,
    rounds_remaining=10,
):
    return RoundObservation(
        round_index=round_index,
        my_slot=my_slot,
        ranking=tuple(ranking),
        my_bid=my_bid,
        my_spend=my_spend,
        rounds_remaining=rounds_remaining,
    )


class TestStrategies:
    def test_static_never_moves(self):
        strategy = StaticBid(1.25)
        assert strategy.next_bid(observe(my_slot=0)) == 1.25
        assert strategy.next_bid(observe(my_slot=None)) == 1.25

    def test_target_slot_raises_when_below(self):
        strategy = TargetSlot(slot=0, step=0.1)
        assert strategy.next_bid(observe(my_slot=2, my_bid=1.0)) == pytest.approx(1.1)
        assert strategy.next_bid(observe(my_slot=None, my_bid=1.0)) == pytest.approx(1.1)

    def test_target_slot_shaves_when_above(self):
        strategy = TargetSlot(slot=2, shave=0.9)
        assert strategy.next_bid(observe(my_slot=0, my_bid=1.0)) == pytest.approx(0.9)

    def test_target_slot_holds_at_target(self):
        strategy = TargetSlot(slot=1)
        assert strategy.next_bid(observe(my_slot=1, my_bid=1.0)) == 1.0

    def test_target_slot_respects_cap(self):
        strategy = TargetSlot(slot=0, step=10.0, max_bid=2.0)
        assert strategy.next_bid(observe(my_slot=None, my_bid=1.5)) == 2.0

    def test_target_slot_validation(self):
        with pytest.raises(InvalidAuctionError):
            TargetSlot(slot=-1)
        with pytest.raises(InvalidAuctionError):
            TargetSlot(slot=0, shave=0.0)

    def test_outbid_raises_when_competitor_above(self):
        strategy = OutbidCompetitor(competitor_id=9, step=0.2)
        bid = strategy.next_bid(
            observe(my_slot=2, ranking=(9, 5, 1), my_bid=1.0)
        )
        assert bid == pytest.approx(1.2)

    def test_outbid_relaxes_when_ahead(self):
        strategy = OutbidCompetitor(competitor_id=9, shave=0.95)
        bid = strategy.next_bid(
            observe(my_slot=0, ranking=(1, 9), my_bid=1.0)
        )
        assert bid == pytest.approx(0.95)

    def test_budget_pacing_spends_evenly(self):
        strategy = BudgetPacing(daily_budget=100.0, valuation=5.0)
        bid = strategy.next_bid(
            observe(my_spend=0.0, rounds_remaining=50)
        )
        assert bid == pytest.approx(2.0)

    def test_budget_pacing_caps_at_valuation(self):
        strategy = BudgetPacing(daily_budget=1000.0, valuation=3.0)
        assert strategy.next_bid(observe(rounds_remaining=1)) == 3.0

    def test_budget_pacing_stops_when_exhausted(self):
        strategy = BudgetPacing(daily_budget=10.0, valuation=5.0)
        assert strategy.next_bid(observe(my_spend=10.0, rounds_remaining=5)) == 0.0

    def test_budget_pacing_validation(self):
        with pytest.raises(InvalidAuctionError):
            BudgetPacing(daily_budget=-1.0, valuation=1.0)


class TestBiddingWar:
    def make_war(self, strategies, rounds=50):
        ids = list(strategies)
        return BiddingWar(
            strategies=strategies,
            initial_bids={i: 1.0 for i in ids},
            ctr_factors={i: 1.0 for i in ids},
            slot_factors=[0.3, 0.2],
            rounds=rounds,
        )

    def test_mismatched_maps_rejected(self):
        with pytest.raises(InvalidAuctionError):
            BiddingWar(
                strategies={1: StaticBid(1.0)},
                initial_bids={1: 1.0, 2: 1.0},
                ctr_factors={1: 1.0},
                slot_factors=[0.3],
                rounds=5,
            )

    def test_needs_rounds(self):
        with pytest.raises(InvalidAuctionError):
            self.make_war({1: StaticBid(1.0), 2: StaticBid(1.0)}, rounds=0)

    def test_traces_have_full_length(self):
        war = self.make_war(
            {1: StaticBid(1.0), 2: StaticBid(2.0), 3: StaticBid(0.5)},
            rounds=20,
        )
        traces = war.run()
        for trace in traces.values():
            assert len(trace.bids) == 20
            assert len(trace.slots) == 20
            assert len(trace.spend) == 20

    def test_static_ranking_is_stable(self):
        war = self.make_war(
            {1: StaticBid(3.0), 2: StaticBid(2.0), 3: StaticBid(1.0)}
        )
        traces = war.run()
        assert set(traces[1].slots) == {0}
        assert set(traces[2].slots) == {1}
        assert set(traces[3].slots) == {None}

    def test_target_slot_converges_to_top(self):
        """A climber targeting slot 0 against statics eventually takes it."""
        war = self.make_war(
            {
                1: TargetSlot(slot=0, step=0.1),
                2: StaticBid(2.0),
                3: StaticBid(1.5),
            },
            rounds=60,
        )
        traces = war.run()
        # Bids are whole cents: the climber reaches the static's $2.00
        # and takes slot 0 on the lower-id tie-break, then holds.
        assert traces[1].slots[-1] == 0
        assert traces[1].bids[-1] == 2.0

    def test_outbid_duel_escalates(self):
        """Two mutual outbidders ratchet each other upward."""
        war = self.make_war(
            {
                1: OutbidCompetitor(competitor_id=2, step=0.1),
                2: OutbidCompetitor(competitor_id=1, step=0.1),
            },
            rounds=80,
        )
        traces = war.run()
        assert max(traces[1].bids[-1], traces[2].bids[-1]) > 2.0

    def test_budget_pacer_stays_within_budget(self):
        war = self.make_war(
            {
                1: BudgetPacing(daily_budget=5.0, valuation=4.0),
                2: StaticBid(0.5),
            },
            rounds=100,
        )
        traces = war.run()
        assert traces[1].spend[-1] <= 5.0 + 1e-6

    def test_spend_is_monotone(self):
        war = self.make_war(
            {1: StaticBid(2.0), 2: StaticBid(1.0)}, rounds=30
        )
        traces = war.run()
        for trace in traces.values():
            assert all(
                a <= b + 1e-12 for a, b in zip(trace.spend, trace.spend[1:])
            )


class TestTheWarRunsOnTheEngine:
    def test_one_shared_engine_with_the_exec_cache(self):
        war = BiddingWar(
            {1: StaticBid(2.0), 2: TargetSlot(slot=0, step=0.1)},
            {1: 2.0, 2: 1.0},
            {1: 1.0, 2: 1.0},
            [0.3],
            rounds=15,
        )
        assert isinstance(war.engine, SharedAuctionEngine)
        assert (war.engine.mode, war.engine.exec_cache) == ("shared", True)
        war.run()
        store = war.engine._store
        assert [
            store.bid_cents[store.row_of(i)] for i in (1, 2)
        ] == [dollars_to_cents(war.bids[i]) for i in (1, 2)]

    def test_a_click_costs_the_runner_up_not_the_bid(self):
        # Generalized second pricing: the top slot pays the second
        # score, the second slot the third; spend moves in those steps.
        war = BiddingWar(
            {1: StaticBid(3.0), 2: StaticBid(2.0), 3: StaticBid(1.0)},
            {1: 3.0, 2: 2.0, 3: 1.0},
            {1: 1.0, 2: 1.0, 3: 1.0},
            [0.3, 0.2],
            rounds=60,
        )
        traces = war.run()
        for advertiser_id, price in ((1, 200), (2, 100)):
            cents = round(traces[advertiser_id].spend[-1] * 100)
            assert cents > 0 and cents % price == 0
        assert traces[3].spend[-1] == 0.0

    def test_the_trace_shows_the_bid_the_engine_ran(self):
        # A 0.99 shave of $0.01 is 0.99 cents and $0.0149 is 1.49 cents;
        # the engine runs both as 1 cent, and the trace (and so the next
        # observation) shows $0.01.
        war = BiddingWar(
            {0: TargetSlot(slot=1, shave=0.99), 1: StaticBid(0.0149)},
            {0: 0.01, 1: 0.01},
            {0: 1.0, 1: 0.9},
            [0.3, 0.2],
            rounds=4,
        )
        traces = war.run()
        assert traces[0].slots == [0, 0, 0, 0]
        assert traces[0].bids == traces[1].bids == [0.01] * 4

    def test_bidding_imports_nothing_from_the_plans(self):
        import repro.bidding.runner
        import repro.bidding.strategies

        for module in (repro.bidding.runner, repro.bidding.strategies):
            assert "repro.plans" not in inspect.getsource(module)


class TestBadBids:
    @pytest.mark.parametrize("bid", [float("nan"), float("inf"), -float("inf")])
    def test_a_non_finite_strategy_bid_is_refused(self, bid):
        war = BiddingWar(
            {0: StaticBid(bid), 1: StaticBid(1.0)},
            {0: 1.0, 1: 1.0},
            {0: 1.0, 1: 1.0},
            [0.3],
            3,
        )
        with pytest.raises(InvalidAuctionError):
            war.run()
        assert war.traces[0].bids == [1.0]

    @pytest.mark.parametrize("bid", [float("nan"), float("inf"), -1.0, 1e14])
    def test_a_bad_opening_bid_is_refused(self, bid):
        with pytest.raises(InvalidAuctionError):
            BiddingWar(
                {0: StaticBid(1.0), 1: StaticBid(1.0)},
                {0: bid, 1: 1.0},
                {0: 1.0, 1: 1.0},
                [0.3],
                3,
            )

    def test_a_bid_past_the_engines_exact_bound_is_refused(self):
        # $10^14 fits int64 cents but not 2**53: set_bids refuses it.
        war = BiddingWar(
            {0: StaticBid(1e14), 1: StaticBid(1.0)},
            {0: 1.0, 1: 1.0},
            {0: 1.0, 1: 1.0},
            [0.3],
            3,
        )
        with pytest.raises(InvalidAuctionError, match="2\\*\\*53"):
            war.run()
