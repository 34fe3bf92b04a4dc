"""Unit tests for click-through-rate models."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core.ctr import (
    MatrixCTRModel,
    SeparableCTRModel,
    is_separable,
    separable_factors,
)
from repro.errors import InvalidAuctionError


class TestSeparableCTRModel:
    def test_paper_figure_1_and_2(self):
        """The Figures 1/2 example: c x d reproduces every ctr_ij."""
        model = SeparableCTRModel({0: 1.2, 1: 1.1, 2: 1.3}, [0.3, 0.2])
        expected = {
            (0, 0): 0.36,
            (0, 1): 0.24,
            (1, 0): 0.33,
            (1, 1): 0.22,
            (2, 0): 0.39,
            (2, 1): 0.26,
        }
        for (advertiser, slot), value in expected.items():
            assert model.ctr(advertiser, slot) == pytest.approx(value)

    def test_num_slots(self):
        model = SeparableCTRModel({0: 1.0}, [0.5, 0.3, 0.1])
        assert model.num_slots == 3

    def test_requires_some_slot(self):
        with pytest.raises(InvalidAuctionError):
            SeparableCTRModel({0: 1.0}, [])

    @pytest.mark.parametrize(
        "factors", [[1.5], [float("nan")], [0.3, float("nan")]]
    )
    def test_slot_factors_must_be_probabilities(self, factors):
        with pytest.raises(InvalidAuctionError):
            SeparableCTRModel({0: 1.0}, factors)

    def test_slot_factors_must_be_non_increasing(self):
        with pytest.raises(InvalidAuctionError):
            SeparableCTRModel({0: 1.0}, [0.2, 0.3])

    @pytest.mark.parametrize("factor", [-1.0, float("nan"), float("inf")])
    def test_negative_advertiser_factor_rejected(self, factor):
        with pytest.raises(InvalidAuctionError):
            SeparableCTRModel({0: factor}, [0.3])

    def test_unknown_advertiser_raises(self):
        model = SeparableCTRModel({0: 1.0}, [0.3])
        with pytest.raises(InvalidAuctionError):
            model.ctr(99, 0)
        with pytest.raises(InvalidAuctionError):
            model.advertiser_factor(99)

    def test_slot_out_of_range_raises(self):
        model = SeparableCTRModel({0: 1.0}, [0.3])
        with pytest.raises(InvalidAuctionError):
            model.ctr(0, 1)

    def test_as_matrix_round_trip(self):
        model = SeparableCTRModel({0: 1.2, 1: 0.8}, [0.3, 0.2])
        matrix = model.as_matrix([0, 1])
        for advertiser in (0, 1):
            for slot in (0, 1):
                assert matrix.ctr(advertiser, slot) == pytest.approx(
                    model.ctr(advertiser, slot)
                )


class TestMatrixCTRModel:
    def test_basic(self):
        model = MatrixCTRModel({0: [0.3, 0.1], 1: [0.2, 0.05]})
        assert model.num_slots == 2
        assert model.ctr(1, 1) == pytest.approx(0.05)

    def test_empty_rejected(self):
        with pytest.raises(InvalidAuctionError):
            MatrixCTRModel({})

    def test_ragged_rows_rejected(self):
        with pytest.raises(InvalidAuctionError):
            MatrixCTRModel({0: [0.1, 0.2], 1: [0.1]})

    @pytest.mark.parametrize("row", [[1.2], [float("nan")]])
    def test_out_of_range_probability_rejected(self, row):
        with pytest.raises(InvalidAuctionError):
            MatrixCTRModel({0: row})

    def test_unknown_row_raises(self):
        model = MatrixCTRModel({0: [0.1]})
        with pytest.raises(InvalidAuctionError):
            model.ctr(5, 0)

    def test_bad_slot_raises(self):
        model = MatrixCTRModel({0: [0.1]})
        with pytest.raises(InvalidAuctionError):
            model.ctr(0, 3)


class TestSeparability:
    def test_separable_matrix_detected(self):
        model = SeparableCTRModel({0: 1.2, 1: 1.1, 2: 1.3}, [0.3, 0.2])
        assert is_separable(model.as_matrix([0, 1, 2]))

    def test_non_separable_matrix_detected(self):
        matrix = MatrixCTRModel({0: [0.3, 0.2], 1: [0.2, 0.3]})
        assert not is_separable(matrix)

    def test_factors_round_trip(self):
        original = SeparableCTRModel({0: 1.2, 1: 0.7, 2: 1.0}, [0.4, 0.3, 0.1])
        matrix = original.as_matrix([0, 1, 2])
        recovered = separable_factors(matrix)
        for advertiser in (0, 1, 2):
            for slot in range(3):
                assert recovered.ctr(advertiser, slot) == pytest.approx(
                    matrix.ctr(advertiser, slot)
                )

    def test_factors_reject_non_separable(self):
        matrix = MatrixCTRModel({0: [0.3, 0.2], 1: [0.2, 0.3]})
        with pytest.raises(InvalidAuctionError):
            separable_factors(matrix)

    def test_factors_reject_all_zero(self):
        matrix = MatrixCTRModel({0: [0.0, 0.0], 1: [0.0, 0.0]})
        with pytest.raises(InvalidAuctionError):
            separable_factors(matrix)

    def test_factors_reject_shuffled_slots(self):
        # Rank-one but slot quality increasing: must ask caller to reorder.
        matrix = MatrixCTRModel({0: [0.1, 0.2], 1: [0.2, 0.4]})
        with pytest.raises(InvalidAuctionError):
            separable_factors(matrix)

    @given(
        factors=st.lists(
            st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
            min_size=1,
            max_size=5,
        ),
        slots=st.lists(
            st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
            min_size=1,
            max_size=4,
        ),
    )
    def test_products_are_always_separable(self, factors, slots):
        slots = sorted(slots, reverse=True)
        model = SeparableCTRModel(
            {i: c for i, c in enumerate(factors)}, slots
        )
        assert is_separable(model.as_matrix(range(len(factors))))
