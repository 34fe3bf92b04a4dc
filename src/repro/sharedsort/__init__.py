"""Shared sorting and the threshold algorithm (Section III).

When the advertiser-specific CTR factor ``c_i^q`` differs per bid phrase,
per-phrase top-k values ``b_i * c_i^q`` cannot be aggregated directly;
only the bids ``b_i`` are shared.  Section III's architecture:

- each phrase's top-k is found by the **threshold algorithm**
  (:mod:`repro.sharedsort.threshold`) over two sorted access paths --
  descending ``b_i`` and descending ``c_i^q``;
- the descending-``b_i`` stream for the phrase's advertiser set ``I_q``
  is produced by an **on-demand merge-sort network**
  (:mod:`repro.sharedsort.operators`): pull-based binary merge operators
  with output caches, shared between phrases wherever a subtree's
  advertiser set is common;
- which operators to share is decided offline by a **greedy bottom-up
  plan builder** (:mod:`repro.sharedsort.plan`) maximizing expected
  savings under the full-sort cost model (:mod:`repro.sharedsort.cost`).
"""

from repro.sharedsort.columnar import ColumnarThresholdKernel
from repro.sharedsort.cost import (
    expected_full_sort_cost,
    expected_savings_of_merge,
    independent_sort_cost,
)
from repro.sharedsort.operators import LeafSource, MergeOperator, SortStream
from repro.sharedsort.plan import (
    LiveSharedSort,
    SharedSortPlan,
    SortBuilderStats,
    build_shared_sort_plan,
)
from repro.sharedsort.serialize import plan_to_dict, serialize_plan
from repro.sharedsort.threshold import ThresholdResult, threshold_top_k

__all__ = [
    "ColumnarThresholdKernel",
    "LeafSource",
    "LiveSharedSort",
    "MergeOperator",
    "SharedSortPlan",
    "SortBuilderStats",
    "SortStream",
    "ThresholdResult",
    "build_shared_sort_plan",
    "expected_full_sort_cost",
    "expected_savings_of_merge",
    "independent_sort_cost",
    "plan_to_dict",
    "serialize_plan",
    "threshold_top_k",
]
