"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.errors import InvalidAuctionError


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_engine_has_no_layout_flag(self):
        # One engine; the reference is a library class, not a flag.
        assert not hasattr(build_parser().parse_args(["engine"]), "layout")
        with pytest.raises(SystemExit):
            build_parser().parse_args(["engine", "--layout", "object"])

    def test_engine_has_no_workers_flag(self):
        # One process: there is no sharded engine.
        assert not hasattr(build_parser().parse_args(["engine"]), "workers")
        with pytest.raises(SystemExit):
            build_parser().parse_args(["engine", "--workers", "2"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["engine", "--shards", "1"],
            ["engine", "--replan-after", "1"],
            ["engine", "--planner", "1"],
            ["engine", "--sort-planner", "1"],
            ["plan", "spec.json", "--planner", "naive"],
        ],
        ids=lambda argv: f"{argv[0]} {argv[-2]}",
    )
    def test_no_removed_knob(self, argv, capsys):
        # No sharding, maintenance or planner knob: the lazy and naive
        # planners build byte-identical plans, and the naive one is the
        # library's differential oracle, not a flag.
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
        assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err

    def test_engine_mode_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["engine", "--mode", "warp"])

    def test_trace_capacity_must_be_positive(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["engine", "--trace-capacity", "0"])
        assert "must be positive" in capsys.readouterr().err

    def test_engine_rounds_must_be_positive(self, capsys):
        with pytest.raises(SystemExit) as raised:
            main(["engine", "--rounds", "-3"])
        assert raised.value.code == 2
        assert "must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["fig4", "--seeds", "0"], "must be positive"),
            (["fig4", "--seeds", "-1"], "must be positive"),
            (["gaming", "--rounds", "-3"], "must be positive"),
            (["gaming", "--rounds", "0"], "must be positive"),
            (["gaming", "--delay", "-2"], "must be >= 0"),
            (["gaming", "--honest", "5"], "--honest needs --at-scale"),
            (
                ["gaming", "--at-scale", "3", "--honest", "0"],
                "must be positive",
            ),
            (["shoes", "--general", "-1"], "must be >= 0"),
            (["shoes", "--sports", "-1"], "must be >= 0"),
            (["shoes", "--fashion", "-1"], "must be >= 0"),
            (
                ["shoes", "--general", "0", "--fashion", "0"],
                "both queries need a store",
            ),
            (["engine", "--serve", "--arrival-rate", "nan"], "finite"),
            (["engine", "--serve", "--arrival-rate", "inf"], "finite"),
            (["engine", "--serve", "--arrival-rate", "0"], "finite"),
            (["engine", "--serve", "--zipf-exponent", "nan"], "finite"),
            (["engine", "--serve", "--zipf-exponent", "-1"], "finite"),
        ],
    )
    def test_bad_count_or_rate_is_a_usage_error(self, argv, message, capsys):
        with pytest.raises(SystemExit) as raised:
            main(argv)
        assert raised.value.code == 2
        assert message in capsys.readouterr().err

    def test_a_zipf_exponent_past_float_range_serves(self, capsys):
        # Ranks whose rank ** exponent overflows draw weight 0.0.
        argv = ["engine", "--serve", "--queries", "20", "--zipf-exponent", "2000"]
        assert main(argv) == 0
        assert "queries" in capsys.readouterr().out

    def test_zero_is_a_count_where_it_means_something(self, capsys):
        assert main(["gaming", "--rounds", "5", "--delay", "0"]) == 0
        assert main(["shoes", "--general", "0"]) == 0
        assert "scans" in capsys.readouterr().out


class TestCommands:
    def test_example(self, capsys):
        assert main(["example"]) == 0
        out = capsys.readouterr().out
        assert "Figures 1-3" in out
        assert "A" in out and "B" in out

    def test_fig4(self, capsys):
        assert main(["fig4", "--seeds", "1"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 4" in out
        assert "greedy shared" in out

    def test_shoes_small(self, capsys):
        assert main(["shoes", "--general", "10", "--sports", "4", "--fashion", "3"]) == 0
        out = capsys.readouterr().out
        assert "scans" in out

    def test_gaming(self, capsys):
        assert main(["gaming", "--rounds", "30", "--delay", "3"]) == 0
        out = capsys.readouterr().out
        assert "naive" in out and "throttled" in out

    def test_gaming_seed_seeds_the_market_and_the_clicks(self, capsys):
        def table(seed):
            argv = ["gaming", "--rounds", "30", "--seed", str(seed)]
            assert main(argv) == 0
            return capsys.readouterr().out

        assert table(4) == table(4)
        assert table(4) != table(5)

    def test_engine(self, capsys):
        assert main(["engine", "--rounds", "5", "--mode", "unshared"]) == 0
        out = capsys.readouterr().out
        assert "Engine run" in out

    @pytest.mark.parametrize("mode", ["shared", "unshared", "shared-sort"])
    def test_engine_trace_json(self, capsys, tmp_path, mode):
        trace = tmp_path / "trace.json"
        assert (
            main(
                [
                    "engine",
                    "--rounds",
                    "4",
                    "--mode",
                    mode,
                    "--trace-json",
                    str(trace),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Work counters" in out
        assert f"written to {trace}" in out
        payload = json.loads(trace.read_text())
        assert payload["counters"]["engine.rounds"] == 4
        assert payload["timers"]["engine.round_seconds"]["count"] == 4
        stages = {
            name: stats
            for name, stats in payload["timers"].items()
            if name.startswith("engine.stage.")
        }
        assert sorted(stages) == [
            "engine.stage.allocate",
            "engine.stage.deliver",
            "engine.stage.rank",
            "engine.stage.score",
        ]
        # deliver runs even in a round in which no phrase occurred.
        assert stages["engine.stage.deliver"]["count"] == 4
        assert sum(stats["total_s"] for stats in stages.values()) <= (
            payload["timers"]["engine.round_seconds"]["total_s"]
        )
        round_events = [
            e for e in payload["trace"]["events"] if e["name"] == "engine.round"
        ]
        assert len(round_events) == 4
        if mode == "shared":
            # The columnar fragment executor.
            assert payload["counters"]["plan.leaf_scans"] > 0
        else:
            # Both scan: every phrase of every round is one topk.scans,
            # and no mode of the engine runs the threshold algorithm.
            counters = payload["counters"]
            assert counters["topk.scans"] == counters["engine.phrases"] > 0
            assert not [
                name
                for name in (*counters, *payload["gauges"])
                if name.startswith("ta.")
            ]

    def test_engine_exec_cache(self, capsys, tmp_path):
        trace = tmp_path / "trace.json"
        assert (
            main(
                [
                    "engine",
                    "--rounds",
                    "8",
                    "--mode",
                    "shared",
                    "--exec-cache",
                    "--trace-json",
                    str(trace),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "+exec-cache" in out
        payload = json.loads(trace.read_text())
        assert payload["counters"]["plan.nodes_reused"] > 0
        # The cache diffs its own scores; the engine keeps no bus.
        assert "bus.events_published" not in payload["counters"]

    def test_engine_exec_cache_requires_shared_mode(self):
        with pytest.raises(InvalidAuctionError, match="exec_cache"):
            main(["engine", "--rounds", "2", "--mode", "unshared", "--exec-cache"])

    def test_engine_trace_capacity_bounds_ring(self, tmp_path):
        trace = tmp_path / "trace.json"
        assert (
            main(
                [
                    "engine",
                    "--rounds",
                    "6",
                    "--trace-json",
                    str(trace),
                    "--trace-capacity",
                    "2",
                ]
            )
            == 0
        )
        payload = json.loads(trace.read_text())
        assert len(payload["trace"]["events"]) <= 2
        assert payload["trace"]["dropped"] > 0

    def test_engine_trace_json_unwritable_path_fails_fast(self, capsys):
        assert (
            main(
                [
                    "engine",
                    "--rounds",
                    "2",
                    "--trace-json",
                    "/nonexistent-dir/trace.json",
                ]
            )
            == 1
        )
        captured = capsys.readouterr()
        assert "cannot write trace" in captured.err
        assert "Engine run" not in captured.out  # nothing ran

    def test_engine_without_trace_has_no_collector_output(self, capsys):
        assert main(["engine", "--rounds", "2"]) == 0
        out = capsys.readouterr().out
        assert "Work counters" not in out

    def test_shoes_seed_changes_scores_not_structure(self, capsys):
        args = ["shoes", "--general", "10", "--sports", "4", "--fashion", "3"]
        assert main(args + ["--seed", "1"]) == 0
        first = capsys.readouterr().out
        assert main(args + ["--seed", "1"]) == 0
        second = capsys.readouterr().out
        assert first == second  # same seed reproduces the run exactly
        assert "scans" in first

    def test_plan_to_stdout(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps(
                {
                    "queries": {"p": ["a", "b"], "q": ["b", "c"]},
                    "search_rates": {"p": 0.5},
                }
            )
        )
        assert main(["plan", str(spec)]) == 0
        out = capsys.readouterr().out
        data = json.loads(out)
        assert data["version"] == 1

    def test_plan_to_file_round_trips(self, capsys, tmp_path):
        from repro.plans.serialize import loads

        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"queries": {"p": ["a", "b", "c"]}}))
        out_path = tmp_path / "plan.json"
        assert main(["plan", str(spec), "--output", str(out_path)]) == 0
        plan = loads(out_path.read_text())
        assert plan.total_cost == 2


class TestGamingAtScale:
    def test_gaming_at_scale(self, capsys):
        assert (
            main(
                [
                    "gaming", "--at-scale", "40", "--honest", "10",
                    "--rounds", "6", "--delay", "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Gaming at scale" in out
        assert "revenue loss" in out
        assert "off" in out and "on" in out

    def test_gaming_at_scale_rejects_zero_attackers(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["gaming", "--at-scale", "0"])


class TestEngineFlags:
    def test_engine_revenue_matches_the_reference(self, capsys):
        from repro.reference import ReferenceEngine
        from repro.workloads.generator import MarketConfig, generate_market

        assert main(["engine", "--rounds", "5", "--seed", "3"]) == 0
        revenue = capsys.readouterr().out.splitlines()[-1].split()[-2]
        market = generate_market(MarketConfig(seed=3))
        reference = ReferenceEngine(
            market.advertisers, [0.3, 0.2, 0.1], market.search_rates, seed=3
        ).run(5)
        assert revenue == f"{reference.revenue_cents / 100:.4f}"

    def test_engine_columnar_serve(self, capsys):
        assert main(["engine", "--serve", "--queries", "40"]) == 0
        out = capsys.readouterr().out
        assert "Serving run" in out

    def test_engine_columnar_exec_cache(self, capsys):
        # exec_cache is columnar-native: the fragment executor keeps
        # its lists across rounds instead of falling back to objects.
        assert (
            main(
                [
                    "engine", "--rounds", "5", "--mode", "shared",
                    "--exec-cache",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "+exec-cache" in out

    def test_engine_columnar_shared_sort_serving(self, capsys):
        # Per-query serving under shared-sort: one c_i^q scan a query.
        assert (
            main(
                [
                    "engine", "--serve", "--queries", "40",
                    "--mode", "shared-sort",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Serving run" in out and "mode=shared-sort" in out
