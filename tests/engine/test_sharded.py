"""The sharded parallel engine and its merge boundary.

Sharding rests on a structural fact: connected components of the
phrase-advertiser bipartite graph are fully independent sub-markets.
These tests pin (a) the component partition itself, (b) the pure merge
helpers, and (c) the process-backed :class:`ShardedEngine` -- most
importantly that ``shards=1`` is *byte-identical* to the sequential
engine, which is what makes the sharded path a conservative extension
rather than a second implementation of the auction.
"""

from __future__ import annotations

import pytest

pytest.importorskip("numpy")

from repro.engine.pipeline import EngineReport, RoundReport, SharedAuctionEngine
from repro.engine.sharded import (
    ShardedEngine,
    assign_components,
    connected_components,
    merge_engine_reports,
    merge_round_reports,
)
from repro.errors import InvalidAuctionError
from repro.workloads.fig4 import fig4_market

SLOTS = [0.3, 0.2, 0.1]


def _tiled_market(num_components=3, seed=1):
    return fig4_market(
        num_queries=4,
        num_advertisers=10,
        num_components=num_components,
        seed=seed,
    )


class TestConnectedComponents:
    def test_hand_case(self):
        graph = {
            "a": (1, 2),
            "b": (2, 3),
            "c": (7,),
            "d": (8, 9, 10),
        }
        components = connected_components(graph)
        assert components == [
            ((1, 2, 3), ("a", "b")),
            ((8, 9, 10), ("d",)),
            ((7,), ("c",)),
        ]

    def test_partition_properties_on_generated_market(self):
        advertisers, _ = _tiled_market(num_components=4)
        graph = {}
        for advertiser in advertisers:
            for phrase in advertiser.phrases:
                graph.setdefault(phrase, []).append(
                    advertiser.advertiser_id
                )
        graph = {p: tuple(sorted(ids)) for p, ids in graph.items()}
        components = connected_components(graph)
        assert len(components) == 4
        all_ids = [i for ids, _ in components for i in ids]
        assert sorted(all_ids) == sorted(
            a.advertiser_id for a in advertisers
        )
        assert len(all_ids) == len(set(all_ids))
        all_phrases = [p for _, phrases in components for p in phrases]
        assert sorted(all_phrases) == sorted(graph)
        # Ordered biggest-first.
        sizes = [len(ids) for ids, _ in components]
        assert sizes == sorted(sizes, reverse=True)
        # No advertiser's phrases straddle two components.
        phrase_component = {
            p: index
            for index, (_, phrases) in enumerate(components)
            for p in phrases
        }
        for advertiser in advertisers:
            owners = {phrase_component[p] for p in advertiser.phrases}
            assert len(owners) == 1

    def test_deterministic_across_input_order(self):
        graph = {"a": (1, 2), "b": (3, 4), "c": (5,)}
        reversed_graph = dict(reversed(list(graph.items())))
        assert connected_components(graph) == connected_components(
            reversed_graph
        )


class TestAssignComponents:
    def test_lpt_balances_by_advertiser_count(self):
        components = [
            ((1, 2, 3, 4), ("a",)),
            ((5, 6, 7), ("b",)),
            ((8, 9), ("c",)),
            ((10,), ("d",)),
        ]
        assignment = assign_components(components, 2)
        # 4 -> shard 0; 3 -> shard 1; 2 -> shard 1 (load 3 < 4 is
        # false: loads are 4 vs 3, so lightest is shard 1); 1 -> shard 0?
        # loads then 4 vs 5 -> shard 0.
        assert assignment == [0, 1, 1, 0]
        loads = [0, 0]
        for (ids, _), shard in zip(components, assignment):
            loads[shard] += len(ids)
        assert max(loads) - min(loads) <= 1

    def test_single_shard_takes_everything(self):
        components = [((1,), ("a",)), ((2,), ("b",))]
        assert assign_components(components, 1) == [0, 0]


class TestMergeHelpers:
    def test_merge_round_reports_unions_disjoint_allocations(self):
        first = RoundReport(2, ("a",))
        first.revenue_cents = 100
        first.scans = 5
        first.allocations["a"] = (("winner", 1),)
        first.counters = {"x": 1}
        second = RoundReport(2, ("b",))
        second.revenue_cents = 50
        second.merges = 3
        second.allocations["b"] = (("winner", 2),)
        second.counters = {"x": 2, "y": 7}
        merged = merge_round_reports([first, second])
        assert merged.round_index == 2
        assert merged.occurring_phrases == ("a", "b")
        assert merged.revenue_cents == 150
        assert merged.scans == 5 and merged.merges == 3
        assert set(merged.allocations) == {"a", "b"}
        assert merged.counters == {"x": 3, "y": 7}

    def test_merge_round_reports_rejects_mismatched_rounds(self):
        with pytest.raises(InvalidAuctionError, match="round index"):
            merge_round_reports([RoundReport(1, ()), RoundReport(2, ())])
        with pytest.raises(InvalidAuctionError, match="zero"):
            merge_round_reports([])

    def test_merge_engine_reports_rejects_mismatched_histories(self):
        left, right = EngineReport(), EngineReport()
        left.absorb(RoundReport(0, ()))
        with pytest.raises(InvalidAuctionError, match="round count"):
            merge_engine_reports([left, right])


class TestShardedEngine:
    def test_single_shard_is_byte_identical_to_sequential(self):
        advertisers, rates = _tiled_market(num_components=2)
        sequential = SharedAuctionEngine(
            tuple(advertisers), SLOTS, rates, seed=5
        )
        sequential_report = sequential.run(10)
        with ShardedEngine(
            advertisers, SLOTS, rates, shards=1, seed=5
        ) as sharded:
            assert sharded.shards == 1
            sharded_report = sharded.run(10)
            spent = sharded.spent_snapshot()
        assert (
            sharded_report.revenue_cents == sequential_report.revenue_cents
        )
        assert (
            sharded_report.forgiven_cents
            == sequential_report.forgiven_cents
        )
        assert sharded_report.clicks == sequential_report.clicks
        assert len(sharded_report.history) == len(
            sequential_report.history
        )
        for mine, theirs in zip(
            sharded_report.history, sequential_report.history
        ):
            assert mine.allocations == theirs.allocations
            assert mine.occurring_phrases == theirs.occurring_phrases
        assert spent == sequential.budget_manager.spent_snapshot()

    def test_multi_shard_run_is_deterministic(self):
        advertisers, rates = _tiled_market(num_components=3)
        reports = []
        for _ in range(2):
            with ShardedEngine(
                advertisers, SLOTS, rates, shards=3, seed=7,
                layout="columnar",
            ) as sharded:
                assert sharded.shards == 3
                reports.append(sharded.run(6))
        assert reports[0].revenue_cents == reports[1].revenue_cents
        assert reports[0].clicks == reports[1].clicks
        for left, right in zip(reports[0].history, reports[1].history):
            assert left.allocations == right.allocations

    def test_explicit_round_matches_sequential_allocations(self):
        # Components never interact, so an explicitly supplied occurring
        # set must resolve to the sequential engine's exact allocations
        # regardless of how the phrases are spread over shards.
        advertisers, rates = _tiled_market(num_components=3)
        phrases = sorted(rates)
        sequential = SharedAuctionEngine(
            tuple(advertisers), SLOTS, rates, seed=0
        )
        expected = sequential.run_round(phrases)
        with ShardedEngine(
            advertisers, SLOTS, rates, shards=2, seed=0
        ) as sharded:
            merged = sharded.run_round(phrases)
        assert merged.allocations == expected.allocations
        assert merged.occurring_phrases == expected.occurring_phrases
        assert merged.revenue_cents == expected.revenue_cents

    def test_unknown_phrase_matches_sequential_error(self):
        advertisers, rates = _tiled_market()
        with ShardedEngine(advertisers, SLOTS, rates, shards=2) as sharded:
            with pytest.raises(InvalidAuctionError, match="no advertisers"):
                sharded.run_round(["nonexistent"])

    def test_shards_clamped_to_component_count(self):
        advertisers, rates = _tiled_market(num_components=2)
        with ShardedEngine(
            advertisers, SLOTS, rates, shards=8, seed=0
        ) as sharded:
            assert sharded.requested_shards == 8
            assert sharded.shards == 2
            stats = sharded.stats()
        assert len(stats) == 2
        assert sum(s["advertisers"] for s in stats) == len(advertisers)
        assert sum(s["phrases"] for s in stats) == len(rates)

    def test_settlement_after_a_run(self):
        advertisers, rates = _tiled_market(num_components=2)
        with ShardedEngine(advertisers, SLOTS, rates, shards=2) as sharded:
            sharded.run(3)
            settled = sharded.settle_remaining_clicks()
        assert len(settled) == 3

    def test_rejects_collector_and_bad_shards(self):
        advertisers, rates = _tiled_market()
        with pytest.raises(InvalidAuctionError, match="collector"):
            ShardedEngine(advertisers, SLOTS, rates, collector=object())
        with pytest.raises(InvalidAuctionError, match="positive"):
            ShardedEngine(advertisers, SLOTS, rates, shards=0)

    def test_close_is_idempotent(self):
        advertisers, rates = _tiled_market()
        sharded = ShardedEngine(advertisers, SLOTS, rates, shards=2)
        sharded.close()
        sharded.close()
