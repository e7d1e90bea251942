"""Fast tests of the benchmark itself: python -m pytest bench"""

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads

workloads.load_program()

import tracing  # noqa: E402  (needs hypermatch on the path)
from hypermatch.experiment import run_trial  # noqa: E402

BENCH_JSON = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
BASELINE = json.loads((run.BENCH_DIR / "baseline_counts.json").read_text())


@pytest.fixture(scope="module")
def greedy_outcome():
    cfg = workloads.config("greedy-n60", workloads.DEFAULT_SEED)
    return cfg, run_trial(cfg, 0)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_trial_reproduces_run_trial(name):
    cfg = workloads.config(name, workloads.DEFAULT_SEED)
    expected = run_trial(cfg, 0)
    tracer = tracing.Tracer()
    traced, counts = tracing.traced_trial(cfg, 0, tracer)
    assert tracing.record_mismatches(expected, traced) == []
    assert traced == expected
    assert workloads.check_outcome(cfg, 0, traced) == []
    names = {s[0] for s in tracer.spans}
    assert tracing.ROOT_SPAN in names and "sampling.sample" in names
    assert all(s[1] <= s[2] for s in tracer.spans)
    assert counts["edges"] == expected.record.edges_before


def test_metric_names_and_units_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCH_JSON["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH_JSON["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in BENCH_JSON["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_every_metric_with_its_unit(trace):
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "greedy-n60", "--seconds", "0",
         "--trace", str(trace)],
        cwd=workloads.ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == workloads.PINNED_TRIALS
    units = run.PER_LAYER if trace else run.END_TO_END
    assert {m: v["unit"] for m, v in result["metrics"].items()} == units
    human = "\n".join(lines[:-1])
    for metric, unit in (units if trace else {**units, **run.PRINTED_ONLY}).items():
        assert f"{metric} " in human and f" {unit}\n" in human
    assert "error_rate" in human
    if trace:
        for metric, value in BASELINE["greedy-n60"].items():
            assert result["metrics"][metric]["value"] == value, metric


def test_corrupted_records_are_caught(greedy_outcome):
    cfg, outcome = greedy_outcome
    assert workloads.check_outcome(cfg, 0, outcome) == []
    unverified = dataclasses.replace(
        outcome, record=dataclasses.replace(outcome.record, verified=False))
    assert workloads.check_outcome(cfg, 0, unverified)
    edges = outcome.matching
    overlapping = dataclasses.replace(outcome, matching=(edges[1],) + edges[1:])
    assert workloads.check_outcome(cfg, 0, overlapping)
    assert workloads.check_outcome(cfg, 1, outcome)

    drifted = dataclasses.replace(
        outcome, record=dataclasses.replace(outcome.record, delta_star=outcome.record.delta_star + 1))
    assert tracing.record_mismatches(outcome, drifted) == ["record.delta_star"]

    checker = run.Checker(cfg, "greedy-n60", workloads.DEFAULT_SEED)
    checker.check_pin([drifted.record])
    assert set(checker.failed) == set(range(workloads.PINNED_TRIALS))


def test_parity_violations_are_caught():
    cfg = workloads.config("parity-n60", workloads.DEFAULT_SEED)
    outcome = run_trial(cfg, 0)
    assert workloads.check_outcome(cfg, 0, outcome) == []
    short = dataclasses.replace(
        outcome, record=dataclasses.replace(outcome.record, pi_attempts=cfg.pi_budget - 1))
    assert workloads.check_outcome(cfg, 0, short)
    assert workloads.check_outcome(cfg, 0, dataclasses.replace(outcome, certificate=None))


def test_self_time_subtracts_children():
    spans = [
        ["root", 0.0, 1.0, -1, 7],
        ["child", 0.25, 0.5, 0, 7],
        ["child", 0.5, 0.75, 0, 7],
    ]
    selfs = tracing.self_times(spans)
    assert selfs[7]["root"] == pytest.approx(500.0)
    assert selfs[7]["child"] == pytest.approx(500.0)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "greedy-n60", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode == 2
    assert "correct" not in done.stdout
