"""Model-based (stateful) property tests.

Hypothesis drives random operation sequences against two stateful
components and checks invariants after every step:

- :class:`BudgetMachine` -- the budget manager's books must always
  balance: ``spent + remaining == budget``, spend never exceeds budget,
  forgiven amounts are exactly the uncovered parts of charges.
- :class:`MovingBidsMachine` -- over a plan built once, bids move
  through ``ColumnarStore.set_bid`` (rejected edits included) between
  rounds, and every round the object :class:`PlanExecutor` and a
  cross-round columnar executor answer exactly like a fresh single-scan
  oracle over the bids a dict model holds.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.core.advertiser import Advertiser
from repro.core.columnar import ColumnarStore
from repro.core.money import dollars_to_cents
from repro.core.topk import top_k_scan
from repro.engine.budget_manager import BudgetManager
from repro.errors import InvalidAuctionError
from repro.plans.columnar_exec import ColumnarFragmentExecutor
from repro.plans.executor import PlanExecutor
from repro.plans.greedy_planner import greedy_shared_plan
from repro.plans.instance import SharedAggregationInstance


class BudgetMachine(RuleBasedStateMachine):
    """Random display/click/expiry traffic against one advertiser's books."""

    BUDGET = 500

    def __init__(self) -> None:
        super().__init__()
        self.manager = BudgetManager({1: self.BUDGET})
        self.model_spent = 0
        self.model_forgiven = 0
        self.round_index = 0
        self.displayed: list[tuple[int, int, int]] = []  # (price, round, handle)

    @rule(price=st.integers(min_value=1, max_value=120))
    def display(self, price: int) -> None:
        handle = self.manager.record_display(1, price, 0.5, self.round_index)
        self.displayed.append((price, self.round_index, handle))

    @rule()
    def click_oldest(self) -> None:
        if not self.displayed:
            return
        price, shown_round, handle = self.displayed.pop(0)
        result = self.manager.settle_click(1, price, shown_round, handle)
        charge = min(price, self.BUDGET - self.model_spent)
        assert result.charged_cents == charge
        assert result.forgiven_cents == price - charge
        self.model_spent += charge
        self.model_forgiven += price - charge

    @rule()
    def advance_round(self) -> None:
        self.round_index += 1

    @invariant()
    def books_balance(self) -> None:
        assert self.manager.spent_cents(1) == self.model_spent
        assert (
            self.manager.remaining_cents(1)
            == self.BUDGET - self.model_spent
        )
        assert 0 <= self.manager.remaining_cents(1) <= self.BUDGET

    @invariant()
    def throttle_problem_always_constructible(self) -> None:
        problem = self.manager.throttle_problem(1, 50, 2, self.round_index)
        assert problem.budget_cents == self.manager.remaining_cents(1)
        assert problem.bid_cents <= 50


BudgetMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
TestBudgetMachine = BudgetMachine.TestCase


class MovingBidsMachine(RuleBasedStateMachine):
    """Bids move between rounds over a fixed plan."""

    INTERESTS = {"p": {0, 1, 2}, "q": {2, 3, 4}, "r": {4, 5, 0}, "s": {6}}
    K = 2

    def __init__(self) -> None:
        super().__init__()
        self.bids = {a: float(a % 3 + 1) for a in range(7)}
        instance = SharedAggregationInstance.from_sets(self.INTERESTS)
        self.store = ColumnarStore(
            [
                Advertiser(
                    a, bid, ctr_factor=0.5 + 0.25 * (a % 4),
                    phrases=frozenset(
                        p for p, ids in self.INTERESTS.items() if a in ids
                    ),
                )
                for a, bid in self.bids.items()
            ]
        )
        self.executor = PlanExecutor(greedy_shared_plan(instance), self.K)
        self.cached = ColumnarFragmentExecutor(
            instance, self.store, self.K, cross_round=True
        )
        self.names = sorted(
            q.name for q in instance.queries + instance.trivial_queries
        )

    @rule(
        advertiser=st.integers(0, 6),
        bid=st.sampled_from(
            (0.0, 0.5, 1.0, 1.005, 2.0, 3.0, -1.0, math.nan, 1e300)
        ),
    )
    def move_bid(self, advertiser: int, bid: float) -> None:
        if bid < 0.0 or math.isnan(bid) or bid > 1e17:
            with pytest.raises(InvalidAuctionError):
                self.store.set_bid(advertiser, bid)
        else:
            self.store.set_bid(advertiser, bid)
            self.bids[advertiser] = bid

    @rule(data=st.data())
    def run_round(self, data) -> None:
        names = data.draw(
            st.lists(
                st.sampled_from(self.names), min_size=1, unique=True
            )
        )
        by_row = self.store.bid_cents * self.store.ctr_factors
        scores = dict(zip(self.store.ids.tolist(), by_row.tolist()))
        result = self.executor.run_round(scores, occurring=names)
        cached = self.cached.run_round(by_row, names)
        for name in names:
            members = sorted(self.INTERESTS[name])
            expected = top_k_scan(self.K, [(scores[v], v) for v in members])
            assert result.answers[name] == expected, name
            assert cached.answers[name] == expected, name

    @invariant()
    def columns_follow_the_model(self) -> None:
        for advertiser, bid in self.bids.items():
            row = self.store.row_of(advertiser)
            assert self.store.bids[row] == bid
            assert self.store.bid_cents[row] == dollars_to_cents(bid)


MovingBidsMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=25, deadline=None
)
TestMovingBidsMachine = MovingBidsMachine.TestCase
