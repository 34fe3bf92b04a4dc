"""Command-line interface: ``python -m repro <command>``.

Commands map to the paper's experiments and the library's main
entry points:

- ``example`` -- the Figures 1-3 worked auction.
- ``fig4`` -- the Fig. 4 cost-vs-probability sweep.
- ``shoes`` -- the Section II-B shoe-store sharing example.
- ``gaming`` -- the Section IV gaming attack on the engine, naive vs
  throttled (E5's market, or E19's with ``--at-scale``).
- ``engine`` -- run a generated market through the round engine, or
  (``--serve``) serve it query-at-a-time from seeded Poisson/Zipf
  traffic with exact p50/p99 latency reporting.
- ``plan`` -- build a shared plan for a JSON query spec and print (or
  save) its serialized form.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import List, Optional

from repro.metrics.tables import ExperimentTable

__all__ = ["main", "build_parser"]


def _positive_int(value: str) -> int:
    number = int(value)
    if number <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {number}")
    return number


def _non_negative_int(value: str) -> int:
    number = int(value)
    if number < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {number}")
    return number


def _positive_float(value: str) -> float:
    number = float(value)
    if not 0.0 < number < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be finite and positive, got {value}"
        )
    return number


def _non_negative_float(value: str) -> float:
    number = float(value)
    if not 0.0 <= number < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be finite and >= 0, got {value}"
        )
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
    fig4.add_argument(
        "--seeds", type=_positive_int, default=3, help="instances per point"
    )

    shoes = sub.add_parser("shoes", help="Section II-B shoe-store example")
    shoes.add_argument("--general", type=_non_negative_int, default=200)
    shoes.add_argument("--sports", type=_non_negative_int, default=40)
    shoes.add_argument("--fashion", type=_non_negative_int, default=30)
    shoes.add_argument("--seed", type=int, default=0, help="score-draw seed")

    gaming = sub.add_parser(
        "gaming", help="Section IV gaming attack on the engine"
    )
    gaming.add_argument("--rounds", type=_positive_int, default=120)
    gaming.add_argument("--delay", type=_non_negative_int, default=3)
    gaming.add_argument(
        "--at-scale",
        type=_positive_int,
        metavar="ATTACKERS",
        help=(
            "run E19's market with this many near-exhausted advertisers "
            "(plus --honest competitors) on three slots, instead of "
            "E5's one attacker against three rivals on one slot"
        ),
    )
    gaming.add_argument(
        "--honest",
        type=_positive_int,
        default=None,
        help="honest deep-budget competitors with --at-scale (default 200)",
    )
    gaming.add_argument(
        "--seed", type=int, default=0, help="market and click seed"
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
        "--exec-cache",
        action="store_true",
        help=(
            "keep fragment top-k lists alive across rounds of several "
            "phrases and rescan only fragments whose scores moved "
            "(shared mode only)"
        ),
    )
    engine.add_argument(
        "--serve",
        action="store_true",
        help=(
            "serve queries one at a time from a seeded Poisson/Zipf "
            "traffic generator instead of running synchronous batch "
            "rounds; prints sustained QPS and exact p50/p99 latency "
            "(--rounds is ignored; see --queries/--arrival-rate).  A "
            "query is a round of one phrase, ranked by one scan in "
            "every --mode; the mode and --exec-cache apply to rounds of "
            "several phrases"
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
        type=_positive_float,
        default=200.0,
        help="traffic arrival rate in queries/second (--serve mode)",
    )
    engine.add_argument(
        "--zipf-exponent",
        type=_non_negative_float,
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
    return parser


def _cmd_example() -> int:
    from repro.core.pricing import GeneralizedSecondPrice
    from repro.core.winner_determination import determine_winners
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


def _cmd_gaming(
    rounds: int,
    delay: int,
    seed: int,
    attackers: Optional[int],
    honest: Optional[int],
) -> int:
    """The attack on the engine: throttling off, then on.

    Without ``attackers`` the market is E5's: one near-exhausted
    attacker against three rivals, all on five always-occurring phrases
    (``m = 5``), one slot.  With it, E19's market at that size, on
    E19's three slots.
    """
    from repro.budgets.gaming import (
        attacker_wins,
        forgiven_fraction,
        gaming_market_at_scale,
    )
    from repro.engine import SharedAuctionEngine

    if attackers is None:
        market = gaming_market_at_scale(
            num_attackers=1,
            num_honest=3,
            num_phrases=5,
            phrases_per_advertiser=5,
            seed=seed,
        )
        slot_factors = [1.0]
        title = f"Gaming attack ({rounds} rounds, delay {delay})"
    else:
        honest = 200 if honest is None else honest
        market = gaming_market_at_scale(
            num_attackers=attackers, num_honest=honest, seed=seed
        )
        slot_factors = [1.0, 0.6, 0.3]
        title = (
            f"Gaming at scale ({attackers} attackers, {honest} honest, "
            f"{rounds} rounds, delay {delay})"
        )
    table = ExperimentTable(
        title,
        [
            "throttling",
            "revenue ($)",
            "forgiven ($)",
            "revenue loss",
            "attacker wins",
        ],
    )
    for throttle in (False, True):
        report = SharedAuctionEngine(
            market.advertisers,
            slot_factors=slot_factors,
            search_rates=market.search_rates,
            mode="unshared",
            throttle=throttle,
            mean_click_delay_rounds=float(delay),
            seed=seed,
        ).run(rounds)
        table.add(
            "on (throttled)" if throttle else "off (naive)",
            report.revenue_cents / 100,
            report.forgiven_cents / 100,
            round(
                forgiven_fraction(
                    report.revenue_cents, report.forgiven_cents
                ),
                4,
            ),
            attacker_wins(report, market.attacker_ids),
        )
    table.show()
    return 0


def _cmd_engine(args: argparse.Namespace) -> int:
    from repro.engine import SharedAuctionEngine
    from repro.workloads.generator import MarketConfig, generate_market

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
    label = f"mode={args.mode}" + (" +exec-cache" if args.exec_cache else "")
    engine = SharedAuctionEngine(
        market.advertisers,
        slot_factors=[0.3, 0.2, 0.1],
        search_rates=market.search_rates,
        mode=args.mode,
        seed=args.seed,
        collector=collector,
        exec_cache=args.exec_cache,
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


def _cmd_plan(spec_path: str, output: Optional[str]) -> int:
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
    plan = greedy_shared_plan(instance)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "example":
        return _cmd_example()
    if args.command == "fig4":
        return _cmd_fig4(args.seeds)
    if args.command == "shoes":
        if not (args.general + args.sports and args.general + args.fashion):
            parser.error(
                "shoes: both queries need a store (--general plus "
                "--sports, and --general plus --fashion, must be positive)"
            )
        return _cmd_shoes(args.general, args.sports, args.fashion, args.seed)
    if args.command == "gaming":
        if args.honest is not None and args.at_scale is None:
            parser.error("gaming: --honest needs --at-scale")
        return _cmd_gaming(
            args.rounds, args.delay, args.seed, args.at_scale, args.honest
        )
    if args.command == "engine":
        return _cmd_engine(args)
    if args.command == "plan":
        return _cmd_plan(args.spec, args.output)
    raise AssertionError(f"unhandled command {args.command!r}")
