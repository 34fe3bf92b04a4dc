"""Model-based (stateful) property tests.

Hypothesis drives random operation sequences against two stateful
components and checks invariants after every step:

- :class:`BudgetMachine` -- the budget manager's books must always
  balance: ``spent + remaining == budget``, spend never exceeds budget,
  forgiven amounts are exactly the uncovered parts of charges.
- :class:`MovingBidsMachine` -- over a plan built once, bids move
  through ``set_bids`` (refused updates included) between rounds and
  served ticks, and every round the object :class:`PlanExecutor`
  answers like a fresh single-scan oracle over the bids a dict model
  holds, while the engine (shared plan, exec cache) and the reference
  agree outcome for outcome.
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
from repro.core.topk import top_k_scan
from repro.engine.budget_manager import BudgetManager
from repro.engine.pipeline import SharedAuctionEngine
from repro.errors import InvalidAuctionError
from repro.plans.executor import PlanExecutor
from repro.plans.greedy_planner import greedy_shared_plan
from repro.plans.instance import SharedAggregationInstance
from repro.reference import ReferenceEngine


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
    """Bids move between rounds and ticks over a fixed plan."""

    INTERESTS = {"p": {0, 1, 2}, "q": {2, 3, 4}, "r": {4, 5, 0}, "s": {6}}
    K = 2

    def __init__(self) -> None:
        super().__init__()
        self.bids = {a: (a % 3 + 1) * 100 for a in range(7)}
        advertisers = [
            Advertiser(
                a, cents / 100.0, ctr_factor=0.5 + 0.25 * (a % 4),
                daily_budget=float("inf") if a % 2 else 6.0,
                phrases=frozenset(
                    p for p, ids in self.INTERESTS.items() if a in ids
                ),
            )
            for a, cents in self.bids.items()
        ]
        slots = [0.3, 0.2][: self.K]
        self.engine = SharedAuctionEngine(
            advertisers, slots, {}, mode="shared", exec_cache=True
        )
        self.reference = ReferenceEngine(advertisers, slots, {})
        instance = SharedAggregationInstance.from_sets(self.INTERESTS)
        self.executor = PlanExecutor(greedy_shared_plan(instance), self.K)
        self.names = sorted(self.INTERESTS)

    @rule(
        advertiser=st.integers(0, 7),
        cents=st.sampled_from((0, 50, 100, 101, 200, 300, -1, 1.5, math.nan, 2**60)),
    )
    def move_bid(self, advertiser: int, cents) -> None:
        if advertiser == 7 or not isinstance(cents, int) or not 0 <= cents < 2**50:
            for engine in (self.engine, self.reference):
                with pytest.raises(InvalidAuctionError):
                    engine.set_bids([advertiser], [cents])
        else:
            for engine in (self.engine, self.reference):
                engine.set_bids([advertiser], [cents])
            self.bids[advertiser] = cents

    @rule(data=st.data())
    def run_round(self, data) -> None:
        names = data.draw(
            st.lists(
                st.sampled_from(self.names), min_size=1, unique=True
            )
        )
        scores = {a: cents * (0.5 + 0.25 * (a % 4)) for a, cents in self.bids.items()}
        result = self.executor.run_round(scores, occurring=names)
        for name in names:
            members = sorted(self.INTERESTS[name])
            expected = top_k_scan(self.K, [(scores[v], v) for v in members])
            assert result.answers[name] == expected, name
        ours, theirs = self.engine.run_round(names), self.reference.run_round(names)
        assert ours.allocations == theirs.allocations
        assert ours.revenue_cents == theirs.revenue_cents

    @rule(phrase=st.sampled_from(sorted(INTERESTS)))
    def serve(self, phrase: str) -> None:
        ours = self.engine.serve_query(phrase)
        theirs = self.reference.serve_query(phrase)
        assert ours.allocations == theirs.allocations
        assert ours.revenue_cents == theirs.revenue_cents

    @invariant()
    def the_bid_column_follows_the_model(self) -> None:
        store = self.engine._store
        for advertiser, cents in self.bids.items():
            assert store.bid_cents[store.row_of(advertiser)] == cents


MovingBidsMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=25, deadline=None
)
TestMovingBidsMachine = MovingBidsMachine.TestCase
