"""Sponsored-search auction substrate.

This package holds the data model and single-auction algorithms the paper
builds on: advertisers and bid phrases (:mod:`repro.core.advertiser`),
click-through-rate models (:mod:`repro.core.ctr`), auction specifications
and outcomes (:mod:`repro.core.auction`), winner determination for both
separable and non-separable click-through rates
(:mod:`repro.core.winner_determination`), pricing rules
(:mod:`repro.core.pricing`), the Hungarian algorithm used by the
non-separable path (:mod:`repro.core.matching`), and the bounded top-k
list with its binary merge operator (:mod:`repro.core.topk`).
"""

from repro.core.advertiser import Advertiser, BidPhrase
from repro.core.columnar import (
    AdvertiserView,
    ColumnarStore,
    columnar_top_k,
    segmented_top_k_picks,
)
from repro.core.auction import Allocation, AuctionOutcome, AuctionSpec
from repro.core.ctr import CTRModel, MatrixCTRModel, SeparableCTRModel
from repro.core.matching import hungarian_max_weight
from repro.core.money import dollars_to_cents
from repro.core.pricing import (
    FirstPrice,
    GeneralizedSecondPrice,
    LadderedVCG,
    PricingRule,
)
from repro.core.topk import ScoredAdvertiser, TopKList, top_k_merge
from repro.core.winner_determination import (
    determine_winners,
    determine_winners_nonseparable,
    determine_winners_separable,
)

__all__ = [
    "Advertiser",
    "AdvertiserView",
    "Allocation",
    "AuctionOutcome",
    "AuctionSpec",
    "BidPhrase",
    "CTRModel",
    "ColumnarStore",
    "FirstPrice",
    "GeneralizedSecondPrice",
    "LadderedVCG",
    "MatrixCTRModel",
    "PricingRule",
    "ScoredAdvertiser",
    "SeparableCTRModel",
    "TopKList",
    "columnar_top_k",
    "determine_winners",
    "determine_winners_nonseparable",
    "determine_winners_separable",
    "dollars_to_cents",
    "hungarian_max_weight",
    "segmented_top_k_picks",
    "top_k_merge",
]
