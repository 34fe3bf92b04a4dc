"""E1: the paper's Figures 1-3 worked example, end to end."""

from __future__ import annotations

import pytest

from repro.core.pricing import GeneralizedSecondPrice
from repro.core.winner_determination import determine_winners
from repro.core.ctr import is_separable, separable_factors
from repro.workloads.scenarios import paper_example_auction


class TestFigures1To3:
    def test_ctr_matrix_matches_figure_1(self):
        spec = paper_example_auction()
        expected = {
            (0, 0): 0.36,
            (0, 1): 0.24,
            (1, 0): 0.33,
            (1, 1): 0.22,
            (2, 0): 0.39,
            (2, 1): 0.26,
        }
        for (advertiser, slot), ctr in expected.items():
            assert spec.ctr_model.ctr(advertiser, slot) == pytest.approx(ctr)

    def test_factors_match_figure_2(self):
        spec = paper_example_auction()
        assert spec.ctr_model.advertiser_factor(0) == pytest.approx(1.2)
        assert spec.ctr_model.advertiser_factor(1) == pytest.approx(1.1)
        assert spec.ctr_model.advertiser_factor(2) == pytest.approx(1.3)
        assert spec.ctr_model.slot_factors == (0.3, 0.2)

    def test_matrix_is_separable_and_recoverable(self):
        spec = paper_example_auction()
        matrix = spec.ctr_model.as_matrix([0, 1, 2])
        assert is_separable(matrix)
        recovered = separable_factors(matrix)
        for advertiser in range(3):
            for slot in range(2):
                assert recovered.ctr(advertiser, slot) == pytest.approx(
                    matrix.ctr(advertiser, slot)
                )

    def test_allocation_matches_text(self):
        """Winner determination assigns slot 1 to A and slot 2 to B."""
        allocation = determine_winners(paper_example_auction())
        assert allocation.slot_to_advertiser == (0, 1)

    def test_scores_explain_the_allocation(self):
        spec = paper_example_auction()
        scores = {
            a.advertiser_id: a.bid
            * spec.ctr_model.advertiser_factor(a.advertiser_id)
            for a in spec.advertisers
        }
        assert scores[0] > scores[1] > scores[2]

    def test_gsp_prices_are_valid(self):
        spec = paper_example_auction()
        outcome = GeneralizedSecondPrice().run(spec)
        for advertiser_id, price in outcome.prices.items():
            assert 0.0 <= price <= spec.advertiser_by_id(advertiser_id).bid
        # A pays B's score over A's factor: 1.1 / 1.2.
        assert outcome.prices[0] == pytest.approx(1.1 / 1.2)
        # B pays C's score over B's factor: 1.04 / 1.1.
        assert outcome.prices[1] == pytest.approx(1.04 / 1.1)
