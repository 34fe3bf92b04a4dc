"""Command-line interface: ``python -m repro <command>``.

Commands map to the paper's experiments and the library's main
entry points:

- ``example`` -- the Figures 1-3 worked auction.
- ``fig4`` -- the Fig. 4 cost-vs-probability sweep.
- ``shoes`` -- the Section II-B shoe-store sharing example.
- ``gaming`` -- the Section IV gaming attack, naive vs throttled.
- ``engine`` -- run a generated market through the round engine, or
  (``--serve``) serve it query-at-a-time from seeded Poisson/Zipf
  traffic with exact p50/p99 latency reporting.
- ``plan`` -- build a shared plan for a JSON query spec and print (or
  save) its serialized form.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.metrics.tables import ExperimentTable

__all__ = ["main", "build_parser"]


def _positive_int(value: str) -> int:
    number = int(value)
    if number <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {number}")
    return number


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Shared winner determination in sponsored search auctions "
            "(Martin & Halpern, ICDE 2009) -- reproduction toolkit"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("example", help="the Figures 1-3 worked auction")

    fig4 = sub.add_parser("fig4", help="Fig. 4 cost-vs-probability sweep")
    fig4.add_argument("--seeds", type=int, default=3, help="instances per point")

    shoes = sub.add_parser("shoes", help="Section II-B shoe-store example")
    shoes.add_argument("--general", type=int, default=200)
    shoes.add_argument("--sports", type=int, default=40)
    shoes.add_argument("--fashion", type=int, default=30)
    shoes.add_argument("--seed", type=int, default=0, help="score-draw seed")

    gaming = sub.add_parser("gaming", help="Section IV gaming attack")
    gaming.add_argument("--rounds", type=int, default=120)
    gaming.add_argument("--delay", type=int, default=3)
    gaming.add_argument(
        "--at-scale",
        type=_positive_int,
        metavar="ATTACKERS",
        help=(
            "run the attack through the full engine with this many "
            "near-exhausted advertisers (plus honest competitors), "
            "comparing throttling off vs on and reporting the "
            "revenue-loss fraction instead of the single-attacker "
            "mini-simulation"
        ),
    )
    gaming.add_argument(
        "--honest",
        type=_positive_int,
        default=200,
        help="honest deep-budget competitors in --at-scale mode",
    )
    gaming.add_argument(
        "--seed", type=int, default=0, help="market/click seed (--at-scale)"
    )

    engine = sub.add_parser("engine", help="run a generated market")
    engine.add_argument("--rounds", type=_positive_int, default=50)
    engine.add_argument(
        "--mode",
        choices=["shared", "unshared", "shared-sort"],
        default="shared",
    )
    engine.add_argument("--seed", type=int, default=0)
    engine.add_argument(
        "--layout",
        choices=["object", "columnar"],
        default="columnar",
        help=(
            "advertiser storage layout: 'columnar' (the default) keeps "
            "id-sorted numpy columns and runs the mode's mechanism as "
            "vectorized kernels; 'object' is the reference, one scan "
            "per phrase in every mode (byte-identical outcomes)"
        ),
    )
    engine.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        metavar="N",
        help=(
            "partition the market's phrase-advertiser connected "
            "components across N worker processes (shared-nothing "
            "caches and budget books, top-k merged at the "
            "boundary); 1 runs the sequential engine in-process"
        ),
    )
    engine.add_argument(
        "--exec-cache",
        action="store_true",
        help=(
            "keep fragment top-k lists alive across rounds and rescan "
            "only fragments whose scores moved (shared mode, --layout "
            "columnar only)"
        ),
    )
    engine.add_argument(
        "--serve",
        action="store_true",
        help=(
            "serve queries one at a time from a seeded Poisson/Zipf "
            "traffic generator instead of running synchronous batch "
            "rounds; prints sustained QPS and exact p50/p99 latency "
            "(--rounds is ignored; see --queries/--arrival-rate)"
        ),
    )
    engine.add_argument(
        "--queries",
        type=_positive_int,
        default=1000,
        help="queries to serve in --serve mode",
    )
    engine.add_argument(
        "--arrival-rate",
        type=float,
        default=200.0,
        help="traffic arrival rate in queries/second (--serve mode)",
    )
    engine.add_argument(
        "--zipf-exponent",
        type=float,
        default=1.0,
        help=(
            "Zipf popularity skew across phrases, ranked by search "
            "rate (--serve mode; 0 means uniform)"
        ),
    )
    engine.add_argument(
        "--trace-json",
        metavar="PATH",
        help=(
            "run with an enabled metrics collector and write counters, "
            "gauges, timers, and the trace-event ring to PATH as JSON; "
            "also prints the per-subsystem work counter table"
        ),
    )
    engine.add_argument(
        "--trace-capacity",
        type=_positive_int,
        default=65536,
        help="trace ring capacity (events beyond it drop oldest-first)",
    )

    plan = sub.add_parser(
        "plan", help="build and serialize a shared plan from JSON"
    )
    plan.add_argument(
        "spec",
        help=(
            "path to a JSON file: {\"queries\": {name: [vars...]}, "
            "\"search_rates\": {name: rate}}; '-' reads stdin"
        ),
    )
    plan.add_argument("--output", help="write the plan JSON here")
    plan.add_argument(
        "--planner",
        choices=["lazy", "naive"],
        default="lazy",
        help="greedy completion engine (both produce identical plans)",
    )
    return parser


def _cmd_example() -> int:
    from repro.core import GeneralizedSecondPrice, determine_winners
    from repro.workloads.scenarios import paper_example_auction

    spec = paper_example_auction()
    allocation = determine_winners(spec)
    outcome = GeneralizedSecondPrice().run(spec)
    table = ExperimentTable(
        "Figures 1-3: winner determination + GSP",
        ["slot", "advertiser", "score b*c", "GSP price"],
    )
    for slot, advertiser_id in enumerate(allocation.slot_to_advertiser):
        advertiser = spec.advertiser_by_id(advertiser_id)
        score = advertiser.bid * spec.ctr_model.advertiser_factor(
            advertiser_id
        )
        table.add(
            slot + 1,
            "ABC"[advertiser_id],
            score,
            outcome.prices[advertiser_id],
        )
    table.show()
    return 0


def _cmd_fig4(seeds: int) -> int:
    from repro.plans.baselines import no_sharing_plan
    from repro.plans.cost import expected_plan_cost
    from repro.plans.greedy_planner import greedy_shared_plan
    from repro.workloads.fig4 import fig4_instance

    table = ExperimentTable(
        "Fig. 4: expected plan cost vs query probability",
        ["sr", "no sharing", "greedy shared"],
    )
    for probability in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
        unshared = 0.0
        shared = 0.0
        for seed in range(seeds):
            instance = fig4_instance(probability, seed=seed)
            unshared += expected_plan_cost(no_sharing_plan(instance))
            shared += expected_plan_cost(greedy_shared_plan(instance))
        table.add(probability, unshared / seeds, shared / seeds)
    table.show()
    return 0


def _cmd_shoes(general: int, sports: int, fashion: int, seed: int = 0) -> int:
    import random

    from repro.plans.baselines import no_sharing_plan
    from repro.plans.executor import PlanExecutor
    from repro.plans.greedy_planner import greedy_shared_plan
    from repro.workloads.scenarios import shoe_store_instance

    instance, _groups = shoe_store_instance(general, sports, fashion)
    rng = random.Random(seed)
    scores = {v: rng.uniform(0.1, 5.0) for v in instance.variables}
    shared = PlanExecutor(
        greedy_shared_plan(instance, pair_strategy="cover"), 5
    ).run_round(scores)
    unshared = PlanExecutor(no_sharing_plan(instance), 5).run_round(scores)
    table = ExperimentTable(
        "Shoe stores: advertisers scanned",
        ["plan", "scans"],
    )
    table.add("unshared", unshared.advertisers_scanned)
    table.add("shared", shared.advertisers_scanned)
    table.show()
    return 0


def _cmd_gaming_at_scale(
    rounds: int, delay: int, attackers: int, honest: int, seed: int
) -> int:
    """The attack through the full engine: revenue loss, off vs on."""
    from repro.budgets.gaming import forgiven_fraction, gaming_market_at_scale
    from repro.engine import SharedAuctionEngine

    market = gaming_market_at_scale(
        num_attackers=attackers, num_honest=honest, seed=seed
    )
    table = ExperimentTable(
        f"Gaming at scale ({attackers} attackers, {honest} honest, "
        f"{rounds} rounds, delay {delay})",
        [
            "throttling",
            "revenue ($)",
            "forgiven ($)",
            "revenue loss",
        ],
    )
    for throttle in (False, True):
        engine = SharedAuctionEngine(
            market.advertisers,
            slot_factors=[1.0, 0.6, 0.3],
            search_rates=market.search_rates,
            mode="unshared",
            layout="columnar",
            throttle=throttle,
            mean_click_delay_rounds=float(delay),
            seed=seed,
        )
        report = engine.run(rounds)
        table.add(
            "on" if throttle else "off",
            report.revenue_cents / 100,
            report.forgiven_cents / 100,
            round(
                forgiven_fraction(
                    report.revenue_cents, report.forgiven_cents
                ),
                4,
            ),
        )
    table.show()
    return 0


def _cmd_gaming(rounds: int, delay: int) -> int:
    from repro.budgets.gaming import GamingAdvertiser, simulate_gaming

    population = [
        GamingAdvertiser(0, bid_cents=100, budget_cents=150, ctr=0.5)
    ] + [
        GamingAdvertiser(i, bid_cents=80, budget_cents=100_000, ctr=0.5)
        for i in range(1, 4)
    ]
    table = ExperimentTable(
        f"Gaming attack ({rounds} rounds, delay {delay})",
        ["policy", "revenue ($)", "forgiven ($)", "attacker wins"],
    )
    for policy in ("naive", "throttled"):
        report = simulate_gaming(
            population, rounds, 5, delay, policy, seed=42
        )
        table.add(
            policy,
            report.revenue_cents / 100,
            report.forgiven_cents / 100,
            report.wins[0],
        )
    table.show()
    return 0


def _cmd_engine(args: argparse.Namespace) -> int:
    from repro.engine import SharedAuctionEngine
    from repro.workloads.generator import MarketConfig, generate_market

    if args.workers > 1 and args.serve:
        print(
            "--workers shards synchronous batch rounds; the serving "
            "loop (--serve) runs single-process",
            file=sys.stderr,
        )
        return 1
    if args.workers > 1 and args.trace_json is not None:
        print(
            "--trace-json needs an in-process collector; worker shards "
            "run shared-nothing (drop --workers or --trace-json)",
            file=sys.stderr,
        )
        return 1
    collector = None
    if args.trace_json is not None:
        from repro.instrument import MetricsCollector, TraceRing

        # Fail before the run, not after: a long simulation should not
        # end in a traceback because the output directory is missing.
        try:
            with open(args.trace_json, "w"):
                pass
        except OSError as error:
            print(
                f"cannot write trace to {args.trace_json}: {error}",
                file=sys.stderr,
            )
            return 1
        collector = MetricsCollector(trace=TraceRing(args.trace_capacity))
    market = generate_market(MarketConfig(seed=args.seed))
    label = (
        f"mode={args.mode}"
        + (" +columnar" if args.layout == "columnar" else "")
        + (f" +workers={args.workers}" if args.workers > 1 else "")
        + (" +exec-cache" if args.exec_cache else "")
    )
    if args.workers > 1:
        from repro.engine import ShardedEngine

        with ShardedEngine(
            market.advertisers,
            slot_factors=[0.3, 0.2, 0.1],
            search_rates=market.search_rates,
            shards=args.workers,
            seed=args.seed,
            mode=args.mode,
            layout=args.layout,
            exec_cache=args.exec_cache,
        ) as sharded:
            report = sharded.run(args.rounds)
            effective = sharded.shards
        table = ExperimentTable(
            f"Sharded run: {label} ({effective} shard"
            f"{'s' if effective != 1 else ''}), {args.rounds} rounds",
            ["auctions", "merges", "scans", "revenue ($)", "forgiven ($)"],
        )
        table.add(
            report.auctions,
            report.merges,
            report.scans,
            report.revenue_cents / 100,
            report.forgiven_cents / 100,
        )
        table.show()
        return 0
    engine = SharedAuctionEngine(
        market.advertisers,
        slot_factors=[0.3, 0.2, 0.1],
        search_rates=market.search_rates,
        mode=args.mode,
        seed=args.seed,
        collector=collector,
        exec_cache=args.exec_cache,
        layout=args.layout,
    )
    if args.serve:
        from repro.serving import ServingEngine, TrafficGenerator

        traffic = TrafficGenerator.from_search_rates(
            market.search_rates,
            rate_qps=args.arrival_rate,
            zipf_exponent=args.zipf_exponent,
            seed=args.seed,
        )
        loop = ServingEngine(engine, traffic, keep_history=False)
        serving_report = loop.run(args.queries)
        latency = serving_report.latency
        table = ExperimentTable(
            f"Serving run: {label}, {args.queries} queries",
            [
                "queries",
                "sustained qps",
                "p50 (ms)",
                "p99 (ms)",
                "revenue ($)",
            ],
        )
        table.add(
            serving_report.queries,
            latency.qps,
            latency.p50_seconds * 1000.0,
            latency.p99_seconds * 1000.0,
            serving_report.revenue_cents / 100,
        )
        table.show()
    else:
        report = engine.run(args.rounds)
        table = ExperimentTable(
            f"Engine run: {label}, {args.rounds} rounds",
            ["auctions", "merges", "scans", "revenue ($)", "forgiven ($)"],
        )
        table.add(
            report.auctions,
            report.merges,
            report.scans,
            report.revenue_cents / 100,
            report.forgiven_cents / 100,
        )
        table.show()
    if collector is not None and args.trace_json is not None:
        from repro.metrics.tables import counter_table

        counter_table(collector, title=f"Work counters: {label}").show()
        collector.dump(args.trace_json)
        print(f"metrics + trace written to {args.trace_json}")
    return 0


def _cmd_plan(spec_path: str, output: Optional[str], planner: str = "lazy") -> int:
    from repro.plans.greedy_planner import greedy_shared_plan
    from repro.plans.cost import expected_plan_cost
    from repro.plans.instance import SharedAggregationInstance
    from repro.plans.serialize import dumps

    if spec_path == "-":
        raw = sys.stdin.read()
    else:
        with open(spec_path) as handle:
            raw = handle.read()
    spec = json.loads(raw)
    instance = SharedAggregationInstance.from_sets(
        spec["queries"], spec.get("search_rates", 1.0)
    )
    plan = greedy_shared_plan(instance, planner=planner)
    serialized = dumps(plan)
    if output:
        with open(output, "w") as handle:
            handle.write(serialized)
        print(
            f"plan: {plan.total_cost} operators, expected cost "
            f"{expected_plan_cost(plan):.4f}; written to {output}"
        )
    else:
        print(serialized)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "example":
        return _cmd_example()
    if args.command == "fig4":
        return _cmd_fig4(args.seeds)
    if args.command == "shoes":
        return _cmd_shoes(args.general, args.sports, args.fashion, args.seed)
    if args.command == "gaming":
        if args.at_scale is not None:
            return _cmd_gaming_at_scale(
                args.rounds, args.delay, args.at_scale, args.honest, args.seed
            )
        return _cmd_gaming(args.rounds, args.delay)
    if args.command == "engine":
        return _cmd_engine(args)
    if args.command == "plan":
        return _cmd_plan(args.spec, args.output, args.planner)
    raise AssertionError(f"unhandled command {args.command!r}")
