"""Unit tests for advertisers and bid phrases."""

from __future__ import annotations

import pytest

from repro.core.advertiser import Advertiser, BidPhrase
from repro.errors import InvalidAuctionError

NAN = float("nan")
INF = float("inf")


class TestBidPhrase:
    def test_basic_construction(self):
        phrase = BidPhrase("hiking boots", 0.4)
        assert phrase.text == "hiking boots"
        assert phrase.search_rate == 0.4

    def test_default_search_rate_is_certain(self):
        assert BidPhrase("music").search_rate == 1.0

    def test_empty_text_rejected(self):
        with pytest.raises(InvalidAuctionError):
            BidPhrase("")

    @pytest.mark.parametrize("rate", [-0.1, 1.01, 2.0])
    def test_search_rate_out_of_range_rejected(self, rate):
        with pytest.raises(InvalidAuctionError):
            BidPhrase("music", rate)

    def test_with_search_rate_returns_copy(self):
        phrase = BidPhrase("music", 0.5)
        updated = phrase.with_search_rate(0.9)
        assert updated.search_rate == 0.9
        assert phrase.search_rate == 0.5
        assert updated.text == "music"

    def test_ordering_by_text(self):
        assert BidPhrase("a") < BidPhrase("b")

    def test_hashable_and_usable_in_sets(self):
        assert len({BidPhrase("a", 0.5), BidPhrase("a", 0.5)}) == 1


class TestAdvertiser:
    def test_basic_construction(self):
        advertiser = Advertiser(3, bid=1.5, ctr_factor=1.2)
        assert advertiser.advertiser_id == 3
        assert advertiser.bid == 1.5
        assert advertiser.ctr_factor == 1.2
        assert advertiser.daily_budget == float("inf")

    def test_negative_id_rejected(self):
        with pytest.raises(InvalidAuctionError):
            Advertiser(-1, bid=1.0)

    @pytest.mark.parametrize("bid", [-0.5, NAN, INF])
    def test_negative_bid_rejected(self, bid):
        with pytest.raises(InvalidAuctionError):
            Advertiser(0, bid=bid)

    @pytest.mark.parametrize("factor", [-0.1, NAN, INF])
    def test_negative_ctr_factor_rejected(self, factor):
        with pytest.raises(InvalidAuctionError):
            Advertiser(0, bid=1.0, ctr_factor=factor)

    @pytest.mark.parametrize("budget", [-1.0, NAN])
    def test_negative_budget_rejected(self, budget):
        with pytest.raises(InvalidAuctionError):
            Advertiser(0, bid=1.0, daily_budget=budget)

    @pytest.mark.parametrize("factor", [-0.2, NAN, INF])
    def test_negative_phrase_factor_rejected(self, factor):
        with pytest.raises(InvalidAuctionError):
            Advertiser(0, bid=1.0, phrase_ctr_factors={"music": factor})

    def test_score_is_bid_times_factor(self):
        advertiser = Advertiser(0, bid=2.0, ctr_factor=1.3)
        assert advertiser.score() == pytest.approx(2.6)

    def test_score_uses_phrase_override(self):
        advertiser = Advertiser(
            0, bid=2.0, ctr_factor=1.0, phrase_ctr_factors={"books": 1.5}
        )
        assert advertiser.score("books") == pytest.approx(3.0)
        assert advertiser.score("dvds") == pytest.approx(2.0)

    def test_ctr_factor_for_falls_back(self):
        advertiser = Advertiser(
            0, bid=1.0, ctr_factor=0.8, phrase_ctr_factors={"a": 1.1}
        )
        assert advertiser.ctr_factor_for("a") == 1.1
        assert advertiser.ctr_factor_for("b") == 0.8

    def test_interested_in(self):
        advertiser = Advertiser(0, bid=1.0, phrases=frozenset({"music"}))
        assert advertiser.interested_in("music")
        assert not advertiser.interested_in("books")

    def test_with_bid_preserves_identity(self):
        advertiser = Advertiser(7, bid=1.0, phrases=frozenset({"music"}))
        rebid = advertiser.with_bid(2.5)
        assert rebid.bid == 2.5
        assert rebid == advertiser  # identity-based equality
        assert hash(rebid) == hash(advertiser)
        assert rebid.phrases == advertiser.phrases

    def test_with_phrases(self):
        advertiser = Advertiser(1, bid=1.0)
        updated = advertiser.with_phrases(["a", "b"])
        assert updated.phrases == frozenset({"a", "b"})

    def test_equality_is_by_id_only(self):
        assert Advertiser(1, bid=1.0) == Advertiser(1, bid=9.0)
        assert Advertiser(1, bid=1.0) != Advertiser(2, bid=1.0)

    def test_equality_against_other_types(self):
        assert Advertiser(1, bid=1.0) != "advertiser"

    def test_set_semantics_by_id(self):
        population = {Advertiser(1, bid=1.0), Advertiser(1, bid=2.0)}
        assert len(population) == 1
