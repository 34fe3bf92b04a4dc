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
