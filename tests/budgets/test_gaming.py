"""E5: the Section IV gaming attack and its mitigation by throttling."""

from __future__ import annotations

import pytest

from repro.budgets.gaming import attacker_wins, gaming_market_at_scale
from repro.engine.pipeline import EngineReport, RoundReport, SharedAuctionEngine
from repro.errors import BudgetError


def attack_market(seed=0):
    """E5's market: one nearly exhausted attacker against three
    deep-pocketed rivals, all on five always-occurring phrases."""
    return gaming_market_at_scale(
        num_attackers=1,
        num_honest=3,
        num_phrases=5,
        phrases_per_advertiser=5,
        seed=seed,
    )


def attack(delay, throttle, seed=0, rounds=60):
    """One policy's run on the engine: one slot, five auctions a round."""
    market = attack_market(seed)
    return SharedAuctionEngine(
        market.advertisers,
        slot_factors=[1.0],
        search_rates=market.search_rates,
        mode="unshared",
        throttle=throttle,
        mean_click_delay_rounds=float(delay),
        seed=seed,
    ).run(rounds)


class TestAttack:
    @pytest.fixture(scope="class")
    def reports(self):
        return {
            policy: attack(delay=3, throttle=policy == "throttled")
            for policy in ("naive", "throttled")
        }

    def test_naive_forgives_clicks_the_attacker_won(self, reports):
        naive = reports["naive"]
        assert naive.forgiven_cents > 0
        assert attacker_wins(naive, attack_market().attacker_ids) > 0

    def test_throttling_eliminates_forgiven_clicks(self, reports):
        assert reports["throttled"].forgiven_cents == 0
        assert all(
            round_report.forgiven_cents == 0
            for round_report in reports["throttled"].history
        )

    def test_throttling_recovers_revenue(self, reports):
        assert (
            reports["throttled"].revenue_cents
            >= reports["naive"].revenue_cents
        )

    def test_throttling_takes_slots_from_the_attacker(self, reports):
        attackers = attack_market().attacker_ids
        assert attacker_wins(reports["throttled"], attackers) < attacker_wins(
            reports["naive"], attackers
        )


class TestAttackerWins:
    def test_counts_the_attackers_displayed_slots(self):
        report = EngineReport()
        report.absorb(
            RoundReport(
                0,
                ("a", "b"),
                allocations={
                    "a": ((0, 1, 90), (1, 7, 40)),
                    "b": ((0, 7, 80),),
                },
            )
        )
        report.absorb(RoundReport(1, ("a",), allocations={"a": ((0, 2, 50),)}))
        assert attacker_wins(report, frozenset({1, 2})) == 2
        assert attacker_wins(report, frozenset({7})) == 2
        assert attacker_wins(report, frozenset()) == 0


class TestNoDelayBaseline:
    def test_throttling_forgives_nothing_at_delay_zero(self):
        """A zero mean delay still leaves a round's clicks outstanding
        until the next round; throttling covers them too."""
        assert attack(delay=0, throttle=True).forgiven_cents == 0

    @pytest.mark.parametrize("throttle", [False, True])
    def test_deterministic_given_seed(self, throttle):
        first = attack(delay=2, throttle=throttle, seed=5, rounds=30)
        second = attack(delay=2, throttle=throttle, seed=5, rounds=30)
        assert first.revenue_cents == second.revenue_cents
        assert first.forgiven_cents == second.forgiven_cents
        assert first.history == second.history


class TestAtScaleMarket:
    def test_pure_function_of_arguments(self):
        from repro.budgets.gaming import gaming_market_at_scale

        def drawn(market):
            # Advertiser equality is by id alone; the determinism claim
            # is about the drawn attributes, so compare those.
            return [
                (a.advertiser_id, a.bid, a.daily_budget, a.ctr_factor,
                 a.phrases)
                for a in market.advertisers
            ]

        first = gaming_market_at_scale(num_attackers=30, num_honest=5, seed=3)
        second = gaming_market_at_scale(num_attackers=30, num_honest=5, seed=3)
        assert drawn(first) == drawn(second)
        assert drawn(first) != drawn(
            gaming_market_at_scale(num_attackers=30, num_honest=5, seed=4)
        )

    def test_population_shape(self):
        from repro.budgets.gaming import gaming_market_at_scale

        market = gaming_market_at_scale(
            num_attackers=40, num_honest=10, num_phrases=6, seed=0
        )
        assert len(market.advertisers) == 50
        assert len(market.attacker_ids) == 40
        assert len(market.honest_ids) == 10
        assert not market.attacker_ids & market.honest_ids
        assert set(market.search_rates.values()) == {1.0}
        phrases = set(market.search_rates)
        for advertiser in market.advertisers:
            assert len(advertiser.phrases) == 2
            assert advertiser.phrases <= phrases

    def test_attackers_are_near_exhausted(self):
        from repro.budgets.gaming import gaming_market_at_scale

        market = gaming_market_at_scale(num_attackers=50, num_honest=5, seed=1)
        by_id = {a.advertiser_id: a for a in market.advertisers}
        for attacker_id in market.attacker_ids:
            attacker = by_id[attacker_id]
            # Budget worth ~1.5-2 clicks (rounding slop aside): the
            # paper's nearly exhausted advertiser.
            assert attacker.daily_budget < 2.1 * attacker.bid
            assert attacker.daily_budget > 1.4 * attacker.bid
        for honest_id in market.honest_ids:
            honest = by_id[honest_id]
            assert honest.daily_budget > 20 * honest.bid

    def test_rejects_non_positive_sizes(self):
        from repro.budgets.gaming import gaming_market_at_scale

        with pytest.raises(BudgetError):
            gaming_market_at_scale(num_attackers=0)
        with pytest.raises(BudgetError):
            gaming_market_at_scale(num_honest=0)
        with pytest.raises(BudgetError):
            gaming_market_at_scale(num_phrases=0)


class TestForgivenFraction:
    def test_no_delivered_value_is_zero_loss(self):
        from repro.budgets.gaming import forgiven_fraction

        assert forgiven_fraction(0, 0) == 0.0

    def test_fully_paid_is_zero_loss(self):
        from repro.budgets.gaming import forgiven_fraction

        assert forgiven_fraction(500, 0) == 0.0

    def test_fraction_of_delivered_value(self):
        from repro.budgets.gaming import forgiven_fraction

        assert forgiven_fraction(300, 100) == pytest.approx(0.25)
        assert forgiven_fraction(0, 100) == pytest.approx(1.0)
