"""Model-based (stateful) property tests.

Hypothesis drives random operation sequences against the two most
state-heavy components and checks invariants after every step:

- :class:`BudgetMachine` -- the budget manager's books must always
  balance: ``spent + remaining == budget``, spend never exceeds budget,
  forgiven amounts are exactly the uncovered parts of charges.
- :class:`MaintainerMachine` -- the plan maintainer must keep a valid,
  exact plan through arbitrary interleavings of interest changes,
  phrase additions, and drops.
- :class:`MaintainedExecutionMachine` -- an executor rebuilt from every
  plan a drifting maintainer announces must answer every round exactly
  like a fresh single-scan oracle, no matter how repairs, replans,
  score perturbations, and rounds interleave.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.core.topk import top_k_scan
from repro.engine.budget_manager import BudgetManager
from repro.plans.executor import PlanExecutor
from repro.plans.maintenance import PlanMaintainer


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


class MaintainerMachine(RuleBasedStateMachine):
    """Random market drift against the plan maintainer."""

    PHRASES = ("p", "q", "r")
    ADVERTISERS = tuple(range(8))

    @initialize()
    def setup(self) -> None:
        self.maintainer = PlanMaintainer(
            {"p": {0, 1, 2}, "q": {2, 3, 4}, "r": {4, 5, 0}},
            replan_after=4,
        )
        self.extra_phrases = 0

    @rule(
        phrase=st.sampled_from(PHRASES),
        advertiser=st.sampled_from(ADVERTISERS),
    )
    def toggle_interest(self, phrase: str, advertiser: int) -> None:
        if phrase not in self.maintainer.interests():
            return
        interests = self.maintainer.interests()[phrase]
        if advertiser in interests:
            if len(interests) > 2:
                self.maintainer.remove_interest(phrase, advertiser)
        else:
            self.maintainer.add_interest(phrase, advertiser)

    @rule(advertisers=st.sets(st.sampled_from(ADVERTISERS), min_size=2, max_size=5))
    def add_phrase(self, advertisers: set) -> None:
        if self.extra_phrases >= 3:
            return
        self.extra_phrases += 1
        self.maintainer.add_phrase(
            f"extra{self.extra_phrases}", advertisers, 0.5
        )

    @invariant()
    def plan_is_valid_and_exact(self) -> None:
        plan = self.maintainer.plan
        plan.validate()
        interests = self.maintainer.interests()
        variables = {v for ids in interests.values() for v in ids}
        scores = {v: float((v * 37) % 23) for v in variables}
        executor = PlanExecutor(plan, 2)
        result = executor.run_round(scores)
        for query in plan.instance.queries:
            expected = sorted(
                query.variables, key=lambda v: (-scores[v], v)
            )[:2]
            assert (
                list(result.answers[query.name].advertiser_ids()) == expected
            )


MaintainerMachine.TestCase.settings = settings(
    max_examples=15, stateful_step_count=20, deadline=None
)
TestMaintainerMachine = MaintainerMachine.TestCase


class MaintainedExecutionMachine(RuleBasedStateMachine):
    """Plan maintenance interleaved with execution.

    The executor is rebuilt from each plan the maintainer announces
    through its plan-change subscription, and must stay exact through
    arbitrary interleavings of structural repairs, score perturbations
    and executed rounds.  After every step, running a round must
    reproduce a fresh ``top_k_scan`` over the live interests.
    """

    K = 2
    PHRASES = ("p", "q", "r")
    ADVERTISERS = tuple(range(8))

    @initialize()
    def setup(self) -> None:
        self.maintainer = PlanMaintainer(
            {"p": {0, 1, 2}, "q": {2, 3, 4}, "r": {4, 5, 0}},
            replan_after=4,
        )
        self.executor = PlanExecutor(self.maintainer.plan, self.K)
        self.maintainer.subscribe(self._rebuild)
        self.scores = {a: float((a * 37) % 23 + 1) for a in self.ADVERTISERS}
        self.extra_phrases = 0

    def _rebuild(self, plan) -> None:
        self.executor = PlanExecutor(plan, self.K)

    @rule(
        phrase=st.sampled_from(PHRASES),
        advertiser=st.sampled_from(ADVERTISERS),
    )
    def toggle_interest(self, phrase: str, advertiser: int) -> None:
        if phrase not in self.maintainer.interests():
            return
        interests = self.maintainer.interests()[phrase]
        if advertiser in interests:
            if len(interests) > 2:
                self.maintainer.remove_interest(phrase, advertiser)
        else:
            self.maintainer.add_interest(phrase, advertiser)

    @rule(
        advertisers=st.sets(
            st.sampled_from(ADVERTISERS), min_size=2, max_size=5
        )
    )
    def add_phrase(self, advertisers: set) -> None:
        if self.extra_phrases >= 3:
            return
        self.extra_phrases += 1
        self.maintainer.add_phrase(
            f"extra{self.extra_phrases}", advertisers, 0.5
        )

    @rule(
        advertiser=st.sampled_from(ADVERTISERS),
        score=st.integers(min_value=1, max_value=40),
    )
    def perturb_score(self, advertiser: int, score: int) -> None:
        self.scores[advertiser] = float(score)

    @rule()
    def run_round(self) -> None:
        self._run_and_check()

    @invariant()
    def answers_match_fresh_scan(self) -> None:
        self._run_and_check()

    def _run_and_check(self) -> None:
        plan = self.executor.plan
        assert plan is self.maintainer.plan
        result = self.executor.run_round(dict(self.scores))
        # Oracle: an independent single-scan top-k per live query.
        for query in plan.instance.queries:
            expected = top_k_scan(
                self.K,
                [(self.scores[v], v) for v in sorted(query.variables)],
            )
            assert result.answers[query.name] == expected, (
                f"answer diverged from fresh scan for {query.name!r}"
            )
        assert result.merges_performed == result.nodes_materialized


MaintainedExecutionMachine.TestCase.settings = settings(
    max_examples=20, stateful_step_count=25, deadline=None
)
TestMaintainedExecutionMachine = MaintainedExecutionMachine.TestCase
