"""The dense array kernel of the Section IV exact throttle DP.

``mirror_distribution`` / ``mirror_bid`` restate the kernel as plain
ascending-index Python loops; the numpy kernel must reproduce their
floats bit for bit (its only multi-addend cell is summed left to right
with ``cumsum``).  The dict DP and enumeration sum in other orders, so
against those the contract is 1e-9 relative.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.budgets import throttle
from repro.budgets.throttle import (
    ARRAY_CELL_LIMIT,
    ThrottleProblem,
    exact_throttled_bid,
    min_beta_s_array,
    min_beta_s_distribution,
    throttled_bid_via_array,
    throttled_bid_via_dp,
    throttled_bid_via_enumeration,
)
from repro.errors import BudgetError


def mirror_distribution(problem):
    cap = min(problem.budget_cents, problem.max_liability)
    dist = [1.0] + [0.0] * cap
    reach = 0
    for price, ctr in problem.outstanding:
        hit = [dist[v] * ctr for v in range(reach + 1)]
        miss = 1.0 - ctr
        for v in range(reach + 1):
            dist[v] *= miss
        beyond = None
        for v in range(reach + 1):
            if v + price < cap:
                dist[v + price] += hit[v]
            else:
                beyond = hit[v] if beyond is None else beyond + hit[v]
        if beyond is not None:
            dist[cap] += beyond
        reach = min(cap, reach + price)
    return dist


def mirror_bid(problem):
    m, beta = problem.num_auctions, problem.budget_cents
    total = None
    for v, probability in enumerate(mirror_distribution(problem)):
        term = probability * (min(m * problem.bid_cents, beta - v) / m)
        total = term if total is None else total + term
    return total


def relative_gap(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


problems = st.builds(
    ThrottleProblem,
    bid_cents=st.integers(min_value=0, max_value=400),
    budget_cents=st.integers(min_value=0, max_value=3000),
    num_auctions=st.integers(min_value=1, max_value=40),
    outstanding=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=700),
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        ),
        max_size=24,
    ),
)


class TestByteIdentity:
    @settings(deadline=None, max_examples=150)
    @given(problem=problems)
    def test_kernel_equals_python_mirror_bitwise(self, problem):
        assert min_beta_s_array(problem).tolist() == mirror_distribution(problem)
        assert throttled_bid_via_array(problem) == mirror_bid(problem)


class TestAgreement:
    @settings(deadline=None, max_examples=100)
    @given(problem=problems)
    def test_matches_dict_dp(self, problem):
        dense = min_beta_s_array(problem)
        sparse = min_beta_s_distribution(problem)
        assert set(sparse) <= set(range(len(dense)))
        for value, probability in sparse.items():
            assert dense[value] == pytest.approx(probability, rel=1e-9, abs=1e-15)
        assert throttled_bid_via_array(problem) == pytest.approx(
            throttled_bid_via_dp(problem), rel=1e-9, abs=1e-12
        )

    @settings(deadline=None, max_examples=60)
    @given(problem=problems.filter(lambda p: len(p.outstanding) <= 12))
    def test_matches_enumeration(self, problem):
        enumerated = throttled_bid_via_enumeration(problem)
        assert throttled_bid_via_array(problem) == pytest.approx(
            enumerated, rel=1e-9, abs=1e-12
        )
        assert exact_throttled_bid(problem) == pytest.approx(
            enumerated, rel=1e-9, abs=1e-12
        )

    @settings(deadline=None, max_examples=100)
    @given(problem=problems)
    def test_mass_sums_to_one(self, problem):
        dist = min_beta_s_array(problem)
        assert (dist >= 0.0).all()
        assert float(dist.sum()) == pytest.approx(1.0, abs=1e-12)


class TestDispatch:
    def _problem(self, num_ads, seed=5):
        rng = random.Random(seed)
        ads = [
            (rng.randrange(20, 200), rng.uniform(0.05, 0.9))
            for _ in range(num_ads)
        ]
        return ThrottleProblem(120, 400, 3, ads)

    def test_handful_of_ads_enumerates_and_many_take_the_array(self):
        few, many = self._problem(3), self._problem(10)
        assert exact_throttled_bid(few) == throttled_bid_via_enumeration(few)
        assert exact_throttled_bid(many) == throttled_bid_via_array(many)

    def test_routes_agree_across_the_boundary(self):
        # One ad more or less flips the route; the value must not jump.
        for num_ads in range(2, 10):
            problem = self._problem(num_ads)
            assert not problem.trivially_unthrottled()
            routes = (
                throttled_bid_via_enumeration(problem),
                throttled_bid_via_array(problem),
                throttled_bid_via_dp(problem),
            )
            assert exact_throttled_bid(problem) in routes
            assert max(routes) - min(routes) <= 1e-9 * max(routes)

    def test_quick_test_and_zero_short_circuits_run_no_route(self, monkeypatch):
        def boom(problem):
            raise AssertionError("no exact route should run")

        for name in (
            "throttled_bid_via_enumeration",
            "throttled_bid_via_array",
            "throttled_bid_via_dp",
        ):
            monkeypatch.setattr(throttle, name, boom)
        assert exact_throttled_bid(ThrottleProblem(10, 1000, 3, [(50, 0.5)])) == 10.0
        zero_bid = exact_throttled_bid(ThrottleProblem(0, 40, 3, [(50, 0.5)]))
        zero_budget = exact_throttled_bid(ThrottleProblem(10, 0, 3, [(50, 0.5)]))
        assert (zero_bid, zero_budget) == (0.0, 0.0)
        assert str(zero_bid) == str(zero_budget) == "0.0"

    def test_zero_short_circuits_equal_the_dp(self):
        for problem in (
            ThrottleProblem(0, 40, 3, [(50, 0.5), (7, 0.25)]),
            ThrottleProblem(10, 0, 3, [(50, 0.5), (7, 0.25)]),
        ):
            assert throttled_bid_via_dp(problem) == 0.0
            assert throttled_bid_via_array(problem) == 0.0


class TestInputLimit:
    @settings(deadline=None, max_examples=40)
    @given(
        ads=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=500),
                st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
            ),
            min_size=20,
            max_size=20,
        ),
        bid=st.integers(min_value=1, max_value=10**9),
    )
    def test_cells_are_bounded_by_liability_not_budget(self, ads, bid):
        problem = ThrottleProblem(bid, 10**12, 10**6, ads)
        assert min_beta_s_array(problem).size <= problem.max_liability + 1
        assert 0.0 <= exact_throttled_bid(problem) <= bid * (1 + 1e-12)

    @settings(deadline=None, max_examples=25)
    @given(
        ads=st.lists(
            st.tuples(
                st.integers(min_value=10**9, max_value=2 * 10**9),
                st.floats(min_value=0.01, max_value=0.99, allow_nan=False),
            ),
            min_size=6,
            max_size=12,
        ),
    )
    def test_over_limit_problem_takes_the_sparse_route(self, ads):
        problem = ThrottleProblem(10**9, 5 * 10**9, 3, ads)
        assert min(problem.budget_cents, problem.max_liability) >= ARRAY_CELL_LIMIT
        with pytest.MonkeyPatch.context() as patch:
            # The dense array must not even be attempted.
            patch.setattr(throttle, "min_beta_s_array", None)
            value = exact_throttled_bid(problem)
        assert relative_gap(value, throttled_bid_via_enumeration(problem)) <= 1e-9


class TestRecordedExtremes:
    def _check(self, problem):
        assert min_beta_s_array(problem).tolist() == mirror_distribution(problem)
        value = throttled_bid_via_array(problem)
        assert value == mirror_bid(problem)
        assert relative_gap(value, throttled_bid_via_dp(problem)) <= 1e-9
        return value

    def test_ninety_two_ads_against_2850_cents(self):
        rng = random.Random(92)
        ads = [(rng.randrange(20, 260), rng.uniform(0.03, 0.45)) for _ in range(92)]
        problem = ThrottleProblem(240, 2850, 31, ads)
        assert min_beta_s_array(problem).size == 2851
        assert exact_throttled_bid(problem) == self._check(problem)

    def test_price_above_budget_goes_straight_to_the_last_cell(self):
        problem = ThrottleProblem(60, 100, 2, [(250, 0.3), (40, 0.5), (999, 0.1)])
        dist = min_beta_s_array(problem)
        assert dist.size == 101
        assert dist[100] == pytest.approx(1.0 - 0.7 * 0.9)
        self._check(problem)

    def test_liability_below_budget_saturates_nothing(self):
        problem = ThrottleProblem(90, 300, 3, [(50, 0.5), (70, 0.25), (30, 0.8)])
        assert not problem.trivially_unthrottled()
        dist = min_beta_s_array(problem)
        assert dist.size == problem.max_liability + 1 == 151
        assert dist[150] == pytest.approx(0.5 * 0.25 * 0.8)
        self._check(problem)

    def test_liability_equal_to_budget(self):
        problem = ThrottleProblem(90, 150, 3, [(50, 0.5), (70, 0.25), (30, 0.8)])
        dist = min_beta_s_array(problem)
        assert dist.size == 151
        assert dist[150] == pytest.approx(0.5 * 0.25 * 0.8)
        assert self._check(problem) == pytest.approx(
            throttled_bid_via_enumeration(problem), rel=1e-9
        )

    def test_no_outstanding_ads(self):
        problem = ThrottleProblem(50, 30, 3)
        assert min_beta_s_array(problem).tolist() == [1.0]
        assert throttled_bid_via_array(problem) == 10.0


def _bits(value):
    return float(value).hex()


@pytest.fixture
def array_runs(monkeypatch):
    """Counts the :func:`min_beta_s_array` runs over a kept problem's
    own books (the fresh twins it is compared with walk their own)."""
    runs = []
    kernel = throttle.min_beta_s_array
    monkeypatch.setattr(
        throttle, "min_beta_s_array",
        lambda problem: runs.append(problem.outstanding) or kernel(problem),
    )
    return lambda kept: sum(ads is kept.outstanding for ads in runs)


def _ask_in_turn(budget, ads, asks):
    """Ask one kept problem for each ``(bid, m)`` in turn; every answer
    must be the fresh problem's, and no answer may touch what is kept."""
    kept = None
    for bid, m in asks:
        fresh = ThrottleProblem(bid, budget, m, ads)
        kept = (
            ThrottleProblem(bid, budget, m, ads)
            if kept is None
            else kept.asked_again(bid, m)
        )
        assert kept == fresh
        assert kept.max_liability == fresh.max_liability
        standing = kept._standing
        copies = standing and [array.copy() for array in standing]
        assert _bits(exact_throttled_bid(kept)) == _bits(exact_throttled_bid(fresh))
        if standing is not None:
            # Kept once, shared from then on, never written.
            assert kept._standing is standing
            for array, copy in zip(standing, copies):
                assert not array.flags.writeable
                assert array.tolist() == copy.tolist()
    return kept


books = st.tuples(
    st.integers(min_value=0, max_value=3000),
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=700),
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        ),
        max_size=24,
    ),
)
asks = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=400),
        st.integers(min_value=1, max_value=40),
    ),
    min_size=1,
    max_size=6,
)


class TestAskedAgain:
    """One set of books asked for several ``(bid, m)``: the bits of a
    fresh problem each time, whatever route answers."""

    ADS = [(40 + 13 * j, 0.1 + 0.05 * j) for j in range(12)]  # ω = 1338

    @settings(deadline=None, max_examples=150)
    @given(books=books, asks=asks)
    def test_every_ask_equals_a_fresh_problem_bitwise(self, books, asks):
        _ask_in_turn(*books, asks)

    @settings(deadline=None, max_examples=40)
    @given(books=books, asks=asks)
    def test_every_ask_equals_a_fresh_problem_on_the_dict_route(
        self, books, asks
    ):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(throttle, "ARRAY_CELL_LIMIT", 8)
            kept = _ask_in_turn(*books, asks)
            if kept.array_cells > 8:
                assert kept._standing is None

    def test_the_array_runs_once_however_often_it_is_asked(self, array_runs):
        kept = _ask_in_turn(
            2000, self.ADS, [(120, 9), (120, 2), (300, 31), (7, 400)]
        )
        assert array_runs(kept) == 1
        dist, headroom = kept._standing
        fresh = ThrottleProblem(7, 2000, 400, self.ADS)
        assert dist.tolist() == min_beta_s_array(fresh).tolist()
        assert headroom.tolist() == [2000 - v for v in range(len(dist))]
        with pytest.raises(ValueError):
            dist[0] = 0.5
        with pytest.raises(ValueError):
            headroom[0] = 0

    def test_m_crosses_the_quick_test_both_ways(self, array_runs):
        # ω = 1338 <= 2000 - m·b only for the small asks.
        kept = _ask_in_turn(2000, self.ADS, [(10, 3)])
        assert kept.trivially_unthrottled() and kept._standing is None
        kept = kept.asked_again(120, 9)
        assert not kept.trivially_unthrottled()
        assert exact_throttled_bid(kept) == exact_throttled_bid(
            ThrottleProblem(120, 2000, 9, self.ADS)
        )
        assert array_runs(kept) == 1
        kept = kept.asked_again(10, 3)
        assert exact_throttled_bid(kept) == 10.0
        kept = kept.asked_again(120, 12)
        assert _bits(exact_throttled_bid(kept)) == _bits(
            throttled_bid_via_array(ThrottleProblem(120, 2000, 12, self.ADS))
        )
        assert array_runs(kept) == 1

    def test_zero_bid_and_zero_budget_are_dispatcher_returns(self, array_runs):
        kept = _ask_in_turn(600, self.ADS, [(0, 3), (50, 3), (0, 7)])
        assert exact_throttled_bid(kept) == 0.0
        broke = _ask_in_turn(0, self.ADS, [(0, 1), (0, 5)])
        assert not broke.trivially_unthrottled()
        assert broke._standing is None and not array_runs(broke)
        # The one positive bid over the 600 cents.
        assert array_runs(kept) == 1

    def test_enumeration_books_are_never_served_from_an_array(self, array_runs):
        ads = self.ADS[:3]
        kept = _ask_in_turn(150, ads, [(90, 2), (40, 5), (90, 1)])
        assert kept._standing is None and not array_runs(kept)
        assert exact_throttled_bid(kept) == throttled_bid_via_enumeration(kept)

    def test_asked_again_validates_what_it_takes(self):
        kept = ThrottleProblem(10, 100, 1, self.ADS)
        with pytest.raises(BudgetError):
            kept.asked_again(-1, 1)
        with pytest.raises(BudgetError):
            kept.asked_again(10, 0)
