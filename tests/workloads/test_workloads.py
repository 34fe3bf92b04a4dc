"""Tests for workload generators and distributions."""

from __future__ import annotations

import random

import pytest

from repro.errors import WorkloadError
from repro.workloads.distributions import (
    exponential_interarrival,
    lognormal_cents,
    sample_subset,
    zipf_search_rates,
    zipf_weights,
)
from repro.workloads.fig4 import fig4_instance
from repro.workloads.generator import MarketConfig, generate_market
from repro.workloads.scenarios import shoe_store_instance


class TestDistributions:
    def test_zipf_weights_normalized(self):
        weights = zipf_weights(10, 1.0)
        assert sum(weights) == pytest.approx(1.0)
        assert all(a >= b for a, b in zip(weights, weights[1:]))

    def test_zipf_weights_validation(self):
        with pytest.raises(WorkloadError):
            zipf_weights(0)
        with pytest.raises(WorkloadError):
            zipf_weights(5, -1.0)

    def test_a_rank_whose_power_overflows_weighs_nothing(self):
        assert zipf_weights(5, 2000.0) == [1.0, 0.0, 0.0, 0.0, 0.0]
        # Ranks 1..3 still compute (3 ** 600 < 1.8e308), 4 and 5 overflow.
        weights = zipf_weights(5, 600)
        assert weights[0] == 1.0 / (1.0 + 2.0**-600 + 3.0**-600)
        assert weights[3:] == [0.0, 0.0]

    @pytest.mark.parametrize("exponent", (0.0, 0.5, 1.0, 1.1, 2.0, 30.0))
    def test_weights_that_compute_are_unchanged(self, exponent):
        raw = [1.0 / (rank**exponent) for rank in range(1, 41)]
        assert zipf_weights(40, exponent) == [w / sum(raw) for w in raw]

    @pytest.mark.parametrize("exponent", (float("nan"), float("inf")))
    def test_zipf_weights_reject_non_finite_exponent(self, exponent):
        with pytest.raises(WorkloadError, match="finite"):
            zipf_weights(5, exponent)

    @pytest.mark.parametrize("rate", (float("nan"), float("inf"), 0.0))
    def test_interarrival_rejects_a_rate_that_is_not_finite_and_positive(
        self, rate
    ):
        with pytest.raises(WorkloadError, match="rate"):
            exponential_interarrival(random.Random(0), rate)

    def test_zipf_search_rates_top_and_decay(self):
        rates = zipf_search_rates(5, 1.0, 0.8)
        assert rates[0] == pytest.approx(0.8)
        assert rates[1] == pytest.approx(0.4)
        assert all(0.0 < r <= 1.0 for r in rates)

    def test_zipf_search_rates_validation(self):
        with pytest.raises(WorkloadError):
            zipf_search_rates(5, 1.0, 0.0)

    def test_lognormal_positive(self):
        rng = random.Random(0)
        values = [lognormal_cents(rng, 100) for _ in range(200)]
        assert all(v >= 1 for v in values)
        with pytest.raises(WorkloadError):
            lognormal_cents(rng, 0)
        with pytest.raises(WorkloadError):
            lognormal_cents(rng, 100, sigma=-1.0)

    def test_sample_subset(self):
        rng = random.Random(1)
        assert sample_subset(rng, [1, 2, 3], 1.0) == [1, 2, 3]
        assert sample_subset(rng, [1, 2, 3], 0.0) == []
        with pytest.raises(WorkloadError):
            sample_subset(rng, [1], 1.5)


class TestMarketGenerator:
    def test_deterministic_by_seed(self):
        a = generate_market(MarketConfig(seed=4))
        b = generate_market(MarketConfig(seed=4))
        assert [x.advertiser_id for x in a.advertisers] == [
            x.advertiser_id for x in b.advertisers
        ]
        assert a.search_rates == b.search_rates
        assert a.phrase_advertisers == b.phrase_advertisers

    def test_population_size(self):
        config = MarketConfig(
            num_categories=3,
            specialists_per_category=10,
            generalists=5,
            seed=1,
        )
        market = generate_market(config)
        assert len(market.advertisers) == 3 * 10 + 5

    def test_every_advertiser_has_a_phrase(self):
        market = generate_market(MarketConfig(seed=2))
        assert all(a.phrases for a in market.advertisers)

    def test_generalists_span_categories(self):
        config = MarketConfig(
            num_categories=4,
            specialists_per_category=0,
            generalists=20,
            generalist_categories=2,
            phrase_interest=1.0,
            seed=3,
        )
        market = generate_market(config)
        for advertiser in market.advertisers:
            categories = {p.split("p")[0] for p in advertiser.phrases}
            assert len(categories) == 2

    def test_specialists_stay_in_category(self):
        config = MarketConfig(
            num_categories=3,
            specialists_per_category=5,
            generalists=0,
            seed=7,
        )
        market = generate_market(config)
        for advertiser in market.advertisers:
            categories = {p.split("p")[0] for p in advertiser.phrases}
            assert len(categories) == 1

    def test_budgets_follow_config(self):
        unbudgeted = generate_market(MarketConfig(seed=1))
        assert all(
            a.daily_budget == float("inf") for a in unbudgeted.advertisers
        )
        budgeted = generate_market(
            MarketConfig(median_budget_cents=5_000, seed=1)
        )
        assert all(
            a.daily_budget != float("inf") for a in budgeted.advertisers
        )

    def test_config_validation(self):
        with pytest.raises(WorkloadError):
            MarketConfig(num_categories=0)
        with pytest.raises(WorkloadError):
            MarketConfig(generalist_categories=9, num_categories=2)
        with pytest.raises(WorkloadError):
            MarketConfig(phrase_interest=0.0)


class TestFig4Instance:
    def test_protocol_counts(self):
        instance = fig4_instance(0.5, seed=0)
        assert len(instance.queries) == 10
        assert instance.variables <= frozenset(range(20))

    def test_queries_distinct(self):
        instance = fig4_instance(0.5, seed=1)
        varsets = {q.variables for q in instance.queries}
        assert len(varsets) == 10

    def test_all_queries_get_the_probability(self):
        instance = fig4_instance(0.3, seed=2)
        assert all(q.search_rate == 0.3 for q in instance.queries)

    def test_deterministic_by_seed(self):
        a = fig4_instance(0.7, seed=5)
        b = fig4_instance(0.7, seed=5)
        assert [q.variables for q in a.queries] == [
            q.variables for q in b.queries
        ]

    def test_impossible_parameters_raise(self):
        with pytest.raises(RuntimeError):
            fig4_instance(
                0.5, num_queries=10, num_advertisers=2,
                membership_probability=1.0,
            )


class TestShoeScenario:
    def test_default_counts(self):
        instance, groups = shoe_store_instance()
        assert len(groups["general"]) == 200
        assert len(groups["sports"]) == 40
        assert len(groups["fashion"]) == 30
        boots = instance.query_by_name("hiking boots")
        heels = instance.query_by_name("high-heels")
        assert len(boots.variables) == 240
        assert len(heels.variables) == 230

    def test_scaled_counts(self):
        instance, groups = shoe_store_instance(10, 4, 2)
        assert len(instance.query_by_name("hiking boots").variables) == 14
