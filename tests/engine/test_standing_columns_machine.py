"""The standing score columns against the stage they replaced.

Stage 2 of the columnar engine gathers ``min(b, β)``, the quick test's
slack and the closed-form bid and score from columns that stand in row
space, kept current from :meth:`BudgetManager.drain_book_changes`
(DESIGN section 6).  The oracle here is what the stage did before:
re-derive remaining budget, capped bid, closed form, quick test and
score for every occurring advertiser from the manager's books, each
time.  A hypothesis machine drives one engine through arbitrary
interleavings of multi-phrase rounds (so ``m > 1``, and ``m·cap > β``
with an empty ledger, occur), served queries and out-of-round flushes,
on a market of tight, exhausted, ample and unlimited budgets -- the
unlimited ones keep no books at all (DESIGN section 5) -- at the
engine's own ledger horizon, at horizons shorter than the click horizon
(ads die while their clicks are still on the way; at a horizon of one,
the round after their display) and with a CTR-0 second slot (its ads are
dead on display).  The check
runs where it is exact -- between stage 2 and stage 3, when the books
are as scoring saw them -- and compares every row of every column with
a from-scratch recomputation and the stage's output with the old
formula, bit for bit.

The same checkpoint holds the kept Section IV throttle problems (DESIGN
section 6) to the books: each equals the problem the budget manager
would build now, a standing ``min(β, S_l)`` array is the array of that
fresh problem.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.budgets import throttle as throttle_kernel
from repro.budgets.throttle import exact_throttled_bid, min_beta_s_array
from repro.core.advertiser import Advertiser
from repro.core.columnar import UNBUDGETED_CENTS
from repro.engine import pipeline
from repro.engine.budget_manager import BudgetManager
from repro.engine.pipeline import SharedAuctionEngine

PHRASES = ("p0", "p1", "p2", "p3")
EVERYWHERE = frozenset(PHRASES)
INF = float("inf")

# (bid $, ctr factor, daily budget $, phrases).  Slot factors are large,
# so clicks come and the tight budgets drain within a few steps.
MARKET = (
    # m = 4 and 4 * 100 > 150 on an empty ledger: the closed form's
    # min(m·cap, β) / m branch, round one.
    (1.00, 0.9, 1.50, EVERYWHERE),
    (1.20, 0.8, 3.00, EVERYWHERE),
    # Unbudgeted: no books, so never carrying and never a mover.
    (0.90, 1.0, INF, EVERYWHERE),
    # A budget that never binds: once the tight budgets above drain it
    # wins, carrying debt that passes the quick test.
    (0.40, 0.8, 50.00, EVERYWHERE),
    (1.50, 0.7, 0.00, EVERYWHERE),
    (0.80, 0.9, 2.00, frozenset(("p0", "p1"))),
    (1.10, 0.6, INF, frozenset(("p1", "p2"))),
    (0.70, 1.0, 0.75, frozenset(("p2", "p3"))),
    (1.30, 0.5, 4.00, frozenset(("p0", "p3"))),
    (0.60, 0.8, INF, frozenset(("p3",))),
)
ADVERTISERS = tuple(
    Advertiser(index + 1, bid, ctr, budget, phrases)
    for index, (bid, ctr, budget, phrases) in enumerate(MARKET)
)

COLUMNS = (
    "_cap_by_row",
    "_slack_by_row",
    "_carrying_by_row",
    "_base_score_by_row",
)


def _row_from_the_books(engine, advertiser_id: int, row: int) -> tuple:
    """One advertiser's standing cells, from the manager's accessors."""
    manager = engine.budget_manager
    store = engine._store
    remaining = manager.remaining_cents(advertiser_id)
    cap = min(int(store.bid_cents[row]), remaining)
    return (
        cap,
        remaining - manager.liability_cents(advertiser_id),
        advertiser_id in manager.debt_carriers,
        cap / 100.0 * float(store.ctr_factors[row]),
    )


def _score_as_stage_two_used_to(engine, advertiser_id, row, m, round_index):
    """The parent commit's stage 2 for one occurring advertiser.

    Returns ``(effective_bid_cents, score, built_a_problem)``.
    """
    manager = engine.budget_manager
    store = engine._store
    bid_cents = int(store.bid_cents[row])
    remaining = manager.remaining_cents(advertiser_id)
    capped = min(bid_cents, remaining)
    built = False
    if not engine.throttle:
        effective = float(capped)
    else:
        effective = min(m * capped, remaining) / m
        if (
            advertiser_id in manager.debt_carriers
            and manager.liability_cents(advertiser_id)
            > remaining - m * capped
        ):
            built = True
            effective = exact_throttled_bid(
                manager.throttle_problem(advertiser_id, bid_cents, m, round_index)
            )
    return effective, effective / 100.0 * float(store.ctr_factors[row]), built


class StandingColumnsMachine(RuleBasedStateMachine):
    """One engine, checked against the books at every scoring stage."""

    horizon = None
    """The ledger horizon; ``None`` keeps the engine's own,
    ``click_horizon_rounds + 1``."""
    slot_factors = (0.9, 0.6)

    @initialize(
        mode=st.sampled_from(("unshared", "shared", "shared-sort")),
        throttle=st.booleans(),
        exec_cache=st.booleans(),
        array_sync_from=st.sampled_from(
            (1, 3, pipeline.BOOK_SYNC_ARRAY_MIN_MOVERS)
        ),
        array_ad_overhead=st.sampled_from(
            (0, throttle_kernel._ARRAY_AD_OVERHEAD)
        ),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def build(
        self,
        mode,
        throttle,
        exec_cache,
        array_sync_from,
        array_ad_overhead,
        seed,
    ) -> None:
        # Nine advertisers never move sixteen at once: lower the size
        # from which the sync runs as array operations, so both of its
        # routes meet the oracle.
        self.array_sync_from = pipeline.BOOK_SYNC_ARRAY_MIN_MOVERS
        pipeline.BOOK_SYNC_ARRAY_MIN_MOVERS = array_sync_from
        # Nor do budgets of a few dollars hold the six ads from which the
        # exact dispatcher prefers the array DP to enumeration: take its
        # head start away, so kept problems come to hold arrays (the
        # oracle dispatches the same way).
        self.array_ad_overhead = throttle_kernel._ARRAY_AD_OVERHEAD
        throttle_kernel._ARRAY_AD_OVERHEAD = array_ad_overhead
        self.engine = engine = SharedAuctionEngine(
            ADVERTISERS,
            self.slot_factors,
            {phrase: 0.5 for phrase in PHRASES},
            mode=mode,
            throttle=throttle,
            exec_cache=exec_cache and mode == "shared",
            mean_click_delay_rounds=1.0,
            click_horizon_rounds=4,
            seed=seed,
        )
        if self.horizon is not None:
            # Fresh books, nothing booked yet: the standing columns
            # built from the store are theirs too.
            engine.budget_manager = BudgetManager(
                engine.budget_manager._budgets, self.horizon
            )
        self.stages_checked = 0
        # Exact scorings stage 2 answered off a kept problem: those it
        # reported less the problems it had the manager build.
        self.answered_from_kept = 0
        self.kept_arrays_checked = 0
        self.problems_built = 0
        manager = engine.budget_manager
        build_problem = manager.throttle_problem

        def counted_build(*args):
            self.problems_built += 1
            return build_problem(*args)

        manager.throttle_problem = counted_build
        rank = engine._rank_phrases

        def checked_rank(phrases, scored, report):
            self._check_scoring(phrases, scored, report)
            return rank(phrases, scored, report)

        engine._rank_phrases = checked_rank

    def _check_scoring(self, phrases, scored, report):
        """Between stages 2 and 3: nothing has moved since the sync."""
        engine = self.engine
        store = engine._store
        built = self.problems_built  # by the stage: the oracle builds too
        assert not engine.budget_manager._moved
        self._check_rows(range(store.size))
        multiplicity = {}
        for phrase in phrases:
            for advertiser_id in engine.phrase_advertisers[phrase]:
                multiplicity[advertiser_id] = (
                    multiplicity.get(advertiser_id, 0) + 1
                )
        problems = 0
        # What stage 2 hands stages 3 and 4.
        rows, bids, scores = scored
        assert store.ids[rows].tolist() == sorted(multiplicity)
        for advertiser_id, row, got_bid, got_score in zip(
            sorted(multiplicity), rows.tolist(), bids.tolist(), scores.tolist()
        ):
            bid, score, built = _score_as_stage_two_used_to(
                engine, advertiser_id, row, multiplicity[advertiser_id],
                report.round_index,
            )
            problems += built
            assert got_bid == bid
            assert got_score == score
        assert report.debt_carriers_scored == problems
        self.answered_from_kept += problems - built
        self._check_kept_problems(multiplicity, report.round_index)
        self.problems_built = 0
        self.stages_checked += 1

    def _check_kept_problems(self, multiplicity, round_index) -> None:
        """Every kept throttle problem is the one the books give now."""
        engine = self.engine
        manager = engine.budget_manager
        store = engine._store
        kept = engine._standing_problems
        for advertiser_id, problem in kept.items():
            row = store.row_of(advertiser_id)
            # Kept problems fail the O(1) quick test when they occur, so
            # an occurring one was asked for this round's (bid, m).
            m = multiplicity.get(advertiser_id, problem.num_auctions)
            fresh = manager.throttle_problem(
                advertiser_id, int(store.bid_cents[row]), m, round_index
            )
            assert problem.budget_cents == fresh.budget_cents
            assert problem.outstanding == fresh.outstanding
            assert problem.max_liability == fresh.max_liability
            if advertiser_id in multiplicity and (
                m * engine._cap_by_row[row] > engine._slack_by_row[row]
            ):
                assert problem == fresh
            if problem._standing is not None:
                self.kept_arrays_checked += 1
                dist, headroom = problem._standing
                assert np.array_equal(dist, min_beta_s_array(fresh))
                assert np.array_equal(
                    headroom, fresh.budget_cents - np.arange(len(dist))
                )
                assert not dist.flags.writeable
                assert not headroom.flags.writeable
        assert engine._standing_cells == sum(
            problem.array_cells for problem in kept.values()
        ) <= pipeline.STANDING_THROTTLE_CELL_LIMIT

    def _check_rows(self, rows) -> None:
        engine = self.engine
        ids = engine._store.ids
        for row in rows:
            found = tuple(
                getattr(engine, name)[row].item() for name in COLUMNS
            )
            assert found == _row_from_the_books(engine, int(ids[row]), row)

    @rule(occurring=st.sets(st.sampled_from(PHRASES), min_size=2))
    def run_round(self, occurring) -> None:
        checked = self.stages_checked
        report = self.engine.run_round(occurring)
        assert report.occurring_phrases == tuple(sorted(occurring))
        assert self.stages_checked == checked + 1

    @rule(phrase=st.sampled_from(PHRASES))
    def run_round_of_one(self, phrase) -> None:
        self.engine.run_round([phrase])

    @rule()
    def run_empty_round(self) -> None:
        # Clicks settle and ads expire; nothing is scored or synced.
        checked = self.stages_checked
        self.engine.run_round([])
        assert self.stages_checked == checked

    @rule(phrase=st.sampled_from(PHRASES))
    def serve_query(self, phrase) -> None:
        checked = self.stages_checked
        self.engine.serve_query(phrase)
        assert self.stages_checked == checked + 1

    @rule()
    def settle_remaining_clicks(self) -> None:
        self.engine.settle_remaining_clicks()

    @invariant()
    def rows_nobody_moved_are_current(self) -> None:
        # Displays and flushes since the last scoring stage are pending
        # in the manager; every other row is the books' already.
        if not hasattr(self, "engine"):
            return
        store = self.engine._store
        pending = {
            store.row_of(advertiser_id)
            for advertiser_id in self.engine.budget_manager._moved
        }
        self._check_rows(
            row for row in range(store.size) if row not in pending
        )

    def teardown(self) -> None:
        # Whatever is pending syncs to the books, whenever it is asked.
        if hasattr(self, "engine"):
            self.engine._sync_book_columns()
            self._check_rows(range(self.engine._store.size))
            pipeline.BOOK_SYNC_ARRAY_MIN_MOVERS = self.array_sync_from
            throttle_kernel._ARRAY_AD_OVERHEAD = self.array_ad_overhead


def _machine_case(**attributes):
    machine = type("Machine", (StandingColumnsMachine,), attributes)
    case = machine.TestCase
    case.settings = settings(
        max_examples=25, stateful_step_count=30, deadline=None
    )
    return case


TestNoDecayColumns = _machine_case()
# Ads die before their clicks can arrive: settlements meet expired ones.
TestShortHorizonColumns = _machine_case(horizon=3)
TestHorizonOneColumns = _machine_case(horizon=1)
# Every ad shown in the second slot is dead on display.
TestCtrZeroSlotColumns = _machine_case(slot_factors=(0.9, 0.0))


class TestTheMarketIsHard:
    """The machine's market reaches every branch of the stage."""

    def test_every_kind_of_row_occurs(self):
        engine = SharedAuctionEngine(
            ADVERTISERS, [0.9, 0.6], {phrase: 0.5 for phrase in PHRASES},
            mode="unshared",
            mean_click_delay_rounds=1.0, click_horizon_rounds=4, seed=5,
        )
        kinds = set()
        score = engine._effective_scores

        def spying_score(phrases, round_index, report):
            rows, _, _ = scored = score(phrases, round_index, report)
            m = len(phrases)  # everyone below bids on every phrase
            for row in rows[:5].tolist():
                failed = (
                    m * engine._cap_by_row[row] > engine._slack_by_row[row]
                )
                kinds.add((bool(failed), bool(engine._carrying_by_row[row])))
            unbudgeted = engine._store.row_of(3)
            assert not engine._carrying_by_row[unbudgeted]
            assert engine._slack_by_row[unbudgeted] == UNBUDGETED_CENTS
            return scored

        engine._effective_scores = spying_score
        for _ in range(30):
            engine.run_round(PHRASES)
        assert kinds == {
            (False, False), (False, True), (True, False), (True, True),
        }

    def test_a_no_decay_run_answers_carriers_from_kept_problems(self):
        # The machine's own checks, driven by hand: without this the
        # kept-problem assertions could pass on an always-empty dict.
        machine = StandingColumnsMachine()  # the engine's own horizon
        machine.build(
            mode="unshared", throttle=True, exec_cache=False,
            array_sync_from=pipeline.BOOK_SYNC_ARRAY_MIN_MOVERS,
            array_ad_overhead=0, seed=5,
        )
        try:
            for step in range(24):
                machine.run_round({PHRASES[step % 4], PHRASES[(step + 1) % 4]})
                machine.serve_query(PHRASES[(step + 2) % 4])
                machine.rows_nobody_moved_are_current()
            assert machine.stages_checked == 48
            assert machine.answered_from_kept >= 1
            assert machine.kept_arrays_checked >= 1
        finally:
            machine.teardown()

    @pytest.mark.parametrize(
        "attributes",
        ({"horizon": 3}, {"horizon": 1}, {"slot_factors": (0.9, 0.0)}),
        ids=("short_horizon", "horizon_one", "ctr_zero_slot"),
    )
    def test_each_case_reaches_an_early_death(self, attributes):
        # Without this the short-horizon and CTR-0 cases could run the
        # books of the engine's own horizon and pass.
        machine = type("Machine", (StandingColumnsMachine,), attributes)()
        machine.build(
            mode="unshared", throttle=True, exec_cache=False,
            array_sync_from=pipeline.BOOK_SYNC_ARRAY_MIN_MOVERS,
            array_ad_overhead=0, seed=5,
        )
        manager = machine.engine.budget_manager
        # The engine books a round through the unchecked internal.
        settle, book = manager.settle_clicks, manager._record_displays
        early = []

        def spying_settle(clicks):
            clicks = list(clicks)
            # A budgeted click whose ad is off the books already: its
            # block is gone, or its cell was settled.
            blocks = manager._blocks
            early.extend(
                handle
                for advertiser_id, _, shown, handle in clicks
                if advertiser_id in manager._budgets
                and handle not in blocks.get(shown, {}).get(advertiser_id, {})
            )
            return settle(clicks)

        def spying_book(ids, prices, ctrs, round_index):
            early.extend(
                ctr for i, ctr in zip(ids, ctrs)
                if ctr == 0.0 and i in manager._budgets
            )
            return book(ids, prices, ctrs, round_index)

        manager.settle_clicks, manager._record_displays = (
            spying_settle, spying_book,
        )
        try:
            for step in range(12):
                machine.run_round({PHRASES[step % 4], PHRASES[(step + 1) % 4]})
                machine.serve_query(PHRASES[(step + 2) % 4])
            assert machine.stages_checked == 24
            assert early
        finally:
            machine.teardown()

    def test_every_mode_checks_its_scoring_stages(self):
        # The machine's scoring check driven by hand, in every mode:
        # rounds of two phrases and served queries alternate, so the
        # multiplicity of most advertisers moves between 1 and 2.
        for mode in ("unshared", "shared", "shared-sort"):
            machine = StandingColumnsMachine()
            machine.build(
                mode=mode, throttle=True, exec_cache=mode == "shared",
                array_sync_from=pipeline.BOOK_SYNC_ARRAY_MIN_MOVERS,
                array_ad_overhead=0, seed=5,
            )
            try:
                for step in range(12):
                    machine.run_round(
                        {PHRASES[step % 4], PHRASES[(step + 1) % 4]}
                    )
                    machine.serve_query(PHRASES[(step + 2) % 4])
                assert machine.stages_checked == 24
            finally:
                machine.teardown()
