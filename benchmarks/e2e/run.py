"""The benchmark of record: one command, every metric by name.

Two ways in, one measuring path:

* ``run.py --workload NAME --seed N --seconds S --trace 0|1`` runs that
  workload in this process (see :mod:`measure`) and prints, as the last
  line of stdout, the ``BENCHMARK.json`` contract's result object: the
  end-to-end metrics with ``--trace 0``, the per-layer metrics with
  ``--trace 1``.
* without ``--trace`` it runs every workload (or ``--workload``), each
  pass in a fresh child process of the first form, one at a time, and
  prints one JSON report.  ``--passes e2e,verify,trace`` chooses the
  passes (default all), ``--repeat N`` runs N sets and adds the noise
  report, ``--smoke`` shrinks every workload to a few operations.

Exit status is non-zero when an operation failed, an outcome differed
from the oracle, two runs of the same inputs disagreed on outcomes, or
two ``--repeat`` sets disagreed on an end-to-end metric by more than its
bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
PASSES = ("e2e", "verify", "trace")


def _parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload")
    parser.add_argument("--seed", type=int, default=0, help="traffic seed")
    parser.add_argument(
        "--seconds", type=float,
        help="timed work per run (default: BENCHMARK.json run_seconds)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1),
        help="run one workload here: 0 end-to-end, 1 per-layer",
    )
    parser.add_argument(
        "--passes", default=",".join(PASSES),
        help="comma-separated subset of e2e,verify,trace",
    )
    parser.add_argument("--repeat", type=int, default=1, help="sets to run")
    parser.add_argument(
        "--smoke", action="store_true", help="a few operations per workload"
    )
    args = parser.parse_args(argv)
    args.passes = tuple(p for p in args.passes.split(",") if p)
    unknown = [p for p in args.passes if p not in PASSES]
    if unknown or not args.passes:
        parser.error(f"--passes takes a subset of {','.join(PASSES)}")
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    if args.trace is not None and args.workload is None:
        parser.error("--trace needs --workload")
    return args


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# one workload, in this process
# ----------------------------------------------------------------------
def run_one(args: argparse.Namespace) -> int:
    """Run ``args.workload`` here; the result object is the last line."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"no program to measure: {src}/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import measure
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    benchmark = _benchmark_json()
    workload = WORKLOADS[args.workload]
    pinned = None
    seconds = (
        args.seconds
        if args.seconds is not None
        else float(benchmark["run_seconds"])
    )
    if args.smoke:
        workload = workload.smoke()
        seconds = 0.0  # one lap
    elif args.seed == 0:
        pins = json.loads((HERE / "pinned.json").read_text(encoding="utf-8"))
        pinned = pins["inputs_sha256"][workload.name]
    verify = "verify" in args.passes
    result = measure.run_workload(
        workload,
        args.seed,
        seconds,
        trace=bool(args.trace),
        verify=verify,
        pinned_sha256=pinned,
        spans_path=(
            HERE / "out" / f"spans-{workload.name}-seed{args.seed}.jsonl"
            if args.trace
            else None
        ),
    )
    tally = result.tally
    correct = result.correct and (
        not verify or tally.compared_with_oracle >= workload.verify
    )
    units = {
        metric["name"]: metric["unit"]
        for metric in benchmark["per_layer" if args.trace else "end_to_end"]
    }
    if set(result.metrics) != set(units):
        print(
            "BENCHMARK.json and measure.py disagree on the metrics: "
            f"{sorted(set(result.metrics) ^ set(units))}",
            file=sys.stderr,
        )
        return 2
    print(
        json.dumps(
            {
                "detail": {
                    "workload": result.workload,
                    "seed": result.seed,
                    "inputs_sha256": result.inputs_sha256,
                    "outcome_sha256": result.outcome_sha256,
                    "laps": result.laps,
                    "samples": result.samples,
                    "tail_percentile": workload.tail,
                    "ops_compared_with_oracle": tally.compared_with_oracle,
                }
            }
        )
    )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in result.metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


# ----------------------------------------------------------------------
# every workload, each pass in a fresh child
# ----------------------------------------------------------------------
def _child(args: argparse.Namespace, workload: str, trace: int, verify: bool):
    """Run one pass of one workload in a fresh process.

    Returns:
        ``(exit status, detail, result)``; the last two are ``None``
        when the child printed no result.
    """
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--trace", str(trace),
        "--passes", "e2e,verify,trace" if verify else "e2e,trace",
    ]
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(
        command,
        stdout=subprocess.PIPE,
        env={**os.environ, "PYTHONHASHSEED": "0"},
        text=True,
        check=False,
    )
    lines = done.stdout.strip().splitlines()
    try:
        return (
            done.returncode,
            json.loads(lines[-2])["detail"],
            json.loads(lines[-1]),
        )
    except (IndexError, KeyError, ValueError):
        return done.returncode or 1, None, None


def run_set(args: argparse.Namespace, names: List[str]) -> Dict[str, dict]:
    """One set: every workload's passes, one child at a time."""
    report: Dict[str, dict] = {}
    verify = "verify" in args.passes
    for name in names:
        entry: dict = {"metrics": {}, "ok": True}
        traces = []
        if "e2e" in args.passes or "verify" in args.passes:
            traces.append(0)
        if "trace" in args.passes:
            traces.append(1)
        for position, trace in enumerate(traces):
            # The second child replays the same inputs through the same
            # code; it need not pay for the oracle again.
            status, detail, result = _child(
                args, name, trace, verify and position == 0
            )
            if result is None:
                entry["ok"] = False
                continue
            entry["ok"] = entry["ok"] and status == 0 and result["correct"]
            entry["metrics"].update(result["metrics"])
            if position == 0:
                entry.update(detail)
                entry["ops_attempted"] = result["attempted"]
                entry["ops_failed"] = result["failed"]
                entry["failed_share"] = result["failed"] / result["attempted"]
            elif any(
                detail[key] != entry.get(key)
                for key in ("inputs_sha256", "outcome_sha256")
            ):
                # Both children ran the first lap of the same seed.
                entry["ok"] = False
        report[name] = entry
    return report


def _check_same_outcomes(report: Dict[str, dict]) -> List[str]:
    """serve_scan and serve_shared replay one trace on one market."""
    scan, shared = report.get("serve_scan"), report.get("serve_shared")
    if (
        scan and shared
        and scan.get("outcome_sha256") != shared.get("outcome_sha256")
    ):
        return ["serve_scan and serve_shared print different outcome_sha256"]
    return []


def noise_report(sets: List[Dict[str, dict]], bounds: Dict[str, float]):
    """Per (workload, end-to-end metric): min / median / max over the
    sets and the spread as a share of the bound.

    Returns:
        ``(table, problems)``; a problem is two sets that disagree by
        more than the metric's bound, or on a fingerprint.
    """
    table: Dict[str, dict] = {}
    problems: List[str] = []
    for name in sets[0]:
        rows = table.setdefault(name, {})
        for key in ("inputs_sha256", "outcome_sha256"):
            if len({s[name].get(key) for s in sets}) > 1:
                problems.append(f"{name}: sets disagree on {key}")
        for metric, bound in bounds.items():
            values = [
                s[name]["metrics"][metric]["value"]
                for s in sets
                if metric in s[name]["metrics"]
            ]
            if len(values) < 2:
                continue
            median = statistics.median(values)
            spread = (max(values) - min(values)) / median
            rows[metric] = {
                "min": min(values),
                "median": median,
                "max": max(values),
                "spread": spread,
                "spread_over_bound": spread / bound,
            }
            if (max(values) - min(values)) / min(values) > bound:
                problems.append(
                    f"{name}.{metric}: sets disagree by more than {bound}"
                )
    return table, problems


def orchestrate(args: argparse.Namespace) -> int:
    import numpy

    benchmark = _benchmark_json()
    names = [w["name"] for w in benchmark["workloads"]]
    if args.workload is not None:
        if args.workload not in names:
            print(f"unknown workload {args.workload!r}", file=sys.stderr)
            return 2
        names = [args.workload]
    sets = [run_set(args, names) for _ in range(args.repeat)]
    problems: List[str] = []
    for index, report in enumerate(sets):
        problems += [
            f"set {index}: {name} failed"
            for name, entry in report.items()
            if not entry["ok"]
        ]
        problems += _check_same_outcomes(report)
    output: dict = {
        "seed": args.seed,
        "smoke": args.smoke,
        "passes": list(args.passes),
        "environment": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
        "workloads": sets[-1],
    }
    if args.repeat > 1:
        table, disagreements = noise_report(
            sets, {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
        )
        output["noise"] = table
        problems += disagreements
    output["problems"] = problems
    print(json.dumps(output, indent=2))
    return 1 if problems else 0


def main(argv: List[str]) -> int:
    args = _parse(argv)
    if args.trace is not None:
        return run_one(args)
    return orchestrate(args)


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # String hashing decides dict and set layout; pin it so two runs
        # of one seed do the same work in the same order.
        os.execve(
            sys.executable,
            [sys.executable, *sys.argv],
            {**os.environ, "PYTHONHASHSEED": "0"},
        )
    sys.exit(main(sys.argv[1:]))
