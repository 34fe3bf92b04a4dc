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

    def test_engine_layout_defaults_to_columnar(self):
        assert build_parser().parse_args(["engine"]).layout == "columnar"

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
            # The columnar fragment executor (the default layout).
            assert payload["counters"]["plan.leaf_scans"] > 0
        elif mode == "unshared":
            assert payload["counters"]["topk.scans"] > 0
        else:
            assert payload["counters"]["ta.runs"] > 0
            assert payload["gauges"]["ta.stop_depth"] >= 1

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
                    "--layout",
                    "columnar",
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

    def test_engine_exec_cache_requires_columnar_layout(self):
        with pytest.raises(InvalidAuctionError, match="layout='columnar'"):
            main(
                [
                    "engine", "--rounds", "2", "--mode", "shared",
                    "--layout", "object", "--exec-cache",
                ]
            )

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


class TestLayoutAndWorkerFlags:
    def test_engine_columnar_layout(self, capsys):
        pytest.importorskip("numpy")
        assert (
            main(["engine", "--rounds", "4", "--layout", "columnar"]) == 0
        )
        out = capsys.readouterr().out
        assert "+columnar" in out

    def test_engine_columnar_matches_object_revenue(self, capsys):
        pytest.importorskip("numpy")
        outputs = {}
        for layout in ("object", "columnar"):
            assert (
                main(
                    [
                        "engine", "--rounds", "5", "--seed", "3",
                        "--layout", layout,
                    ]
                )
                == 0
            )
            outputs[layout] = capsys.readouterr().out
        revenue = {
            layout: out.splitlines()[-1].split()[-2]
            for layout, out in outputs.items()
        }
        assert revenue["object"] == revenue["columnar"]

    def test_engine_workers_runs_sharded(self, capsys):
        pytest.importorskip("numpy")
        assert (
            main(
                [
                    "engine", "--rounds", "4", "--workers", "2",
                    "--layout", "columnar",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Sharded run" in out
        assert "+workers=2" in out

    def test_engine_columnar_serve(self, capsys):
        # The serving loop runs natively on the columnar layout.
        pytest.importorskip("numpy")
        assert (
            main(
                [
                    "engine", "--serve", "--queries", "40",
                    "--layout", "columnar",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Serving run" in out
        assert "+columnar" in out

    def test_engine_columnar_exec_cache(self, capsys):
        # exec_cache is columnar-native: the fragment executor keeps
        # its lists across rounds instead of falling back to objects.
        pytest.importorskip("numpy")
        assert (
            main(
                [
                    "engine", "--rounds", "5", "--layout", "columnar",
                    "--exec-cache",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "+columnar" in out and "+exec-cache" in out

    def test_engine_columnar_shared_sort_serving(self, capsys):
        # Per-query serving through the lockstep Section III kernel.
        pytest.importorskip("numpy")
        assert (
            main(
                [
                    "engine", "--serve", "--queries", "40",
                    "--mode", "shared-sort", "--layout", "columnar",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Serving run" in out and "+columnar" in out

    def test_layout_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["engine", "--layout", "rowwise"])

    def test_workers_must_be_positive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["engine", "--workers", "0"])

    def test_workers_reject_serve(self, capsys):
        assert main(["engine", "--workers", "2", "--serve"]) == 1
        assert "--serve" in capsys.readouterr().err

    def test_workers_reject_trace_json(self, capsys, tmp_path):
        trace = str(tmp_path / "trace.json")
        assert (
            main(["engine", "--workers", "2", "--trace-json", trace]) == 1
        )
        assert "--trace-json" in capsys.readouterr().err
