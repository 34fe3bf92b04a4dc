"""Tests for the audited dollars-to-cents conversion."""

from __future__ import annotations

import math

import pytest

from repro.core.money import dollars_to_cents
from repro.errors import InvalidAuctionError


class TestDollarsToCents:
    def test_whole_dollars(self):
        assert dollars_to_cents(0.0) == 0
        assert dollars_to_cents(1.0) == 100
        assert dollars_to_cents(250.0) == 25_000

    def test_plain_cents(self):
        assert dollars_to_cents(0.01) == 1
        assert dollars_to_cents(0.99) == 99
        assert dollars_to_cents(19.47) == 1947

    def test_half_cent_rounds_up_not_to_even(self):
        # The regression this helper exists for: ``int(round(x * 100))``
        # uses banker's rounding, so $0.125 became 12 cents while $0.135
        # became 14 -- adjacent half-cents rounding in opposite
        # directions.  Commercial rounding takes every half-cent up.
        assert dollars_to_cents(0.125) == 13
        assert dollars_to_cents(0.135) == 14
        assert dollars_to_cents(0.145) == 15
        assert dollars_to_cents(2.005) == 201

    def test_binary_representation_noise_absorbed(self):
        # 0.145 * 100 is 14.499999999999998 in binary floating point; a
        # naive floor(x + 0.5) would land on 14.  Every dollar amount
        # written with at most three decimals must convert as written.
        for cents in range(0, 3000):
            dollars = cents / 100.0
            assert dollars_to_cents(dollars) == cents, dollars
        for tenth in range(0, 300):
            half = tenth / 100.0 + 0.005
            expected = tenth + 1
            assert dollars_to_cents(half) == expected, half

    def test_rejects_negative(self):
        with pytest.raises(InvalidAuctionError):
            dollars_to_cents(-0.01)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidAuctionError):
            dollars_to_cents(float("nan"))
        with pytest.raises(InvalidAuctionError):
            dollars_to_cents(float("inf"))

    def test_rejects_cents_beyond_int64(self):
        # Cents that still fit the int64 columns, then two that do not.
        assert dollars_to_cents(9.2e16) == 9_200_000_000_000_000_000
        for dollars in (9.3e16, 1e300):
            with pytest.raises(InvalidAuctionError, match="int64"):
                dollars_to_cents(dollars)

    def test_the_last_dollar_amount_below_the_int64_edge_fits(self):
        # 2**63 cents is one past the column's range; the float just
        # below 2**63 / 100 dollars converts to cents that still fit.
        edge = 2**63 / 100
        below = math.nextafter(edge, 0.0)
        cents = dollars_to_cents(below)
        assert 0 < 2**63 - 1 - cents < 2**11
        with pytest.raises(InvalidAuctionError, match="int64"):
            dollars_to_cents(edge)
