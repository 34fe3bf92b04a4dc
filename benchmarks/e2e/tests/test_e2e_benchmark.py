"""The benchmark checks itself: names, arithmetic, spans, restoration,
and that a wrong outcome cannot pass."""

import json
import math
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import measure
import run
import spans
import workloads

E2E = Path(__file__).resolve().parents[1]
ROOT = E2E.parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_smoke_emits_exactly_the_names_in_benchmark_json():
    began = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(E2E / "run.py"), "--smoke"],
        stdout=subprocess.PIPE, text=True, check=False,
    )
    assert time.perf_counter() - began < 20.0
    assert done.returncode == 0, done.stdout
    report = json.loads(done.stdout)
    assert report["problems"] == []
    assert list(report["workloads"]) == [
        w["name"] for w in BENCHMARK["workloads"]
    ]
    expected = {
        m["name"]: m["unit"]
        for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    }
    for name, entry in report["workloads"].items():
        emitted = {m: v["unit"] for m, v in entry["metrics"].items()}
        assert emitted == expected, name
        assert entry["ops_attempted"] > 0
        assert entry["failed_share"] == 0.0
        for metric in BENCHMARK["end_to_end"]:
            assert entry["metrics"][metric["name"]]["value"] > 0.0


def test_benchmark_json_names_the_workloads_and_the_directory():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(
        workloads.WORKLOADS
    )
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]
    assert BENCHMARK["command"] == ["python3", "benchmarks/e2e/run.py"]


def test_percentile_is_nearest_rank():
    rng = random.Random(7)
    cases = [[3.0], [1.0, 1.0, 1.0], [2.0, 1.0]] + [
        [rng.choice((0.5, rng.random())) for _ in range(rng.randint(1, 60))]
        for _ in range(200)
    ]
    for samples in cases:
        ordered = sorted(samples)
        for p in (1.0, 50.0, 75.0, 80.0, 95.0, 99.0, 100.0):
            # Oracle: the smallest sample with at least p% of the
            # samples at or below it.
            oracle = next(
                value
                for value in ordered
                if sum(1 for s in ordered if s <= value) * 100.0
                >= p * len(ordered) - 1e-9
            )
            assert measure.percentile(ordered, p) == oracle
    with pytest.raises(ValueError):
        measure.percentile([], 50.0)
    with pytest.raises(ValueError):
        measure.percentile([1.0], 0.0)


def test_inputs_are_a_function_of_the_seed_and_pinned_at_seed_0():
    pins = json.loads((E2E / "pinned.json").read_text(encoding="utf-8"))
    for name, workload in workloads.WORKLOADS.items():
        first = workloads.generate_inputs(workload, 0)
        assert first.sha256() == pins["inputs_sha256"][name]
        assert first == workloads.generate_inputs(workload, 0)
        other = workloads.generate_inputs(workload, 1)
        assert other.sha256() != first.sha256()
        # The market is the dataset; only the traffic follows the seed
        # and the lap.
        assert other.advertisers == first.advertisers
        second_lap = workloads.generate_inputs(workload, 0, lap=1)
        assert second_lap.advertisers == first.advertisers
        assert second_lap.sha256() != first.sha256()
    scan = workloads.generate_inputs(workloads.WORKLOADS["serve_scan"], 3)
    shared = workloads.generate_inputs(workloads.WORKLOADS["serve_shared"], 3)
    assert scan == shared


def _traced_smoke_lap(name):
    workload = workloads.WORKLOADS[name].smoke()
    inputs = workloads.generate_inputs(workload, 2)
    tally = measure.Tally()
    tracer = measure.run_trace(workload, inputs, [], tally).tracer
    tracer.close()
    return workload, tracer, tally


@pytest.mark.parametrize("name", ["batch_debt", "serve_shared"])
def test_span_accounting(name):
    workload, tracer, tally = _traced_smoke_lap(name)
    assert tally.failed == 0
    records = tracer.spans
    children = {}
    for record in records[1:]:
        children.setdefault(record[spans.PARENT], []).append(record)
    for record in records[1:]:
        assert records[record[spans.ID]] is record
        assert record[spans.START] <= record[spans.END]
        if record[spans.CALLS] == 1:
            duration = record[spans.END] - record[spans.START]
            assert math.isclose(record[spans.BUSY], duration, abs_tol=1e-9)
        for child in children.get(record[spans.ID], ()):
            assert child[spans.OP] == record[spans.OP]
            assert record[spans.START] <= child[spans.START]
            assert child[spans.END] <= record[spans.END]
    # Per operation: the self times of every span add up to the
    # duration of the operation's outermost spans.
    totals = spans.layer_totals(records, 0, workload.warm + workload.timed)
    self_sum = sum(entry["self"] for entry in totals.values())
    outermost = sum(
        r[spans.BUSY] for r in records[1:] if r[spans.PARENT] == 0
        and r[spans.OP] >= 0
    )
    assert outermost > 0.0
    assert math.isclose(self_sum, outermost, rel_tol=0.01)
    for entry in totals.values():
        assert entry["self"] >= -1e-9


def _patched_attributes():
    return [vars(owner)[attribute] for owner, attribute, _, _ in spans.TARGETS]


def test_every_patched_attribute_is_restored_after_a_traced_pass():
    before = _patched_attributes()
    _traced_smoke_lap("batch_sort")
    after = _patched_attributes()
    assert all(a is b for a, b in zip(after, before))


def test_every_patched_attribute_is_restored_when_an_op_raises():
    before = _patched_attributes()
    workload = workloads.WORKLOADS["batch_rank"].smoke()
    inputs = workloads.generate_inputs(workload, 0)
    tracer = spans.Tracer()
    tally = measure.Tally()
    with spans.installed(tracer):
        during = _patched_attributes()
        session = measure.Session.open(workload, inputs)
        # An unknown phrase makes the engine raise inside a wrapped call.
        session.items = list(session.items)
        session.items[4] = ("no-such-phrase",)
        lap = measure.closed_loop(session, workload, tally, tracer)
    assert all(a is not b for a, b in zip(during, before))
    assert all(a is b for a, b in zip(_patched_attributes(), before))
    assert tally.failed == 1 and lap.outcomes[4] is None
    assert len(lap.wall) == workload.timed - 1
    assert len(tracer._stack) == 1
    with pytest.raises(RuntimeError):
        with spans.installed(spans.Tracer()):
            raise RuntimeError("body failed")
    assert all(a is b for a, b in zip(_patched_attributes(), before))


def test_a_wrong_allocation_fails_the_run(monkeypatch, capsys):
    real = workloads.make_engine

    def make_engine(profile, inputs, collector=None):
        engine = real(profile, inputs, collector)
        if profile.startswith("oracle"):
            return engine
        run_round = engine.run_round

        def tampered(occurring=None):
            report = run_round(occurring)
            if report.round_index == 4:
                phrase, slots = next(
                    (p, s) for p, s in sorted(report.allocations.items()) if s
                )
                slot, advertiser_id, price = slots[0]
                report.allocations[phrase] = (
                    (slot, advertiser_id, price + 1),
                ) + slots[1:]
            return report

        engine.run_round = tampered
        return engine

    monkeypatch.setattr(measure, "make_engine", make_engine)
    status = run.main(
        ["--workload", "batch_rank", "--seed", "1", "--trace", "0", "--smoke"]
    )
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status != 0
    assert result["correct"] is False
    assert result["failed"] > 0
    assert result["failed"] / result["attempted"] > 0.0
