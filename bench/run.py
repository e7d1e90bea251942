"""Benchmark of hypermatch trials, end to end and layer by layer.

Usage (from the root of a checkout):

    python3 bench/run.py --workload greedy-n60 [--seed 2024] [--seconds 30] [--trace 0|1]

The load is a closed loop from one process with one thread: trial t+1
starts when trial t returns, as ``run_experiment(cfg, workers=1)`` runs
them. Every trial's output is checked (workloads.check_outcome), and at the
default seed the CSV of the first trials must match its pinned SHA-256.

--trace 0 measures the end-to-end metrics with tracing off. --trace 1
re-drives every trial through the traced mirror (tracing.py), checks that
it reproduces run_trial's outcome, and reports the per-layer metrics; the
spans go to .bench_out/spans-<workload>.jsonl.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. The exit
code is 0 when every check passed, 1 when a trial failed a check, and 2
when the program cannot be found or run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60

END_TO_END = {
    "trials_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Printed with the end-to-end metrics but left out of the JSON result, whose
# metrics are bound-checked: a per-run median trial time swings with the
# machine's speed phases far more than throughput does (README.md).
PRINTED_ONLY = {"trial_ms_p50": "ms"}

PER_LAYER = {
    "sampling.sample_ms": "ms",
    "rng.block_ms": "ms",
    "hypergraph.index_ms": "ms",
    "adversary.greedy_ms": "ms",
    "adversary.parity_ms": "ms",
    "hypergraph.extremes_ms": "ms",
    "pipeline.partition_ms": "ms",
    "hypergraph.induce_ms": "ms",
    "hypergraph.dstar_ms": "ms",
    "pipeline.pi_search_ms": "ms",
    "pipeline.pi_search_self_ms": "ms",
    "pipeline.family_ms": "ms",
    "pipeline.aux_build_ms": "ms",
    "bipartite.hk_ms": "ms",
    "bipartite.hall_ms": "ms",
    "pipeline.translate_ms": "ms",
    "hypergraph.verify_ms": "ms",
    "experiment.trial_ms_p50": "ms",
    "experiment.serialize_ms": "ms",
    "trace.unaccounted_ms": "ms",
    "trace.overhead_pct": "%",
    "sampling.edges": "count",
    "adversary.deleted": "count",
    "pipeline.partition_attempts": "count",
    "pipeline.partition_pass_ratio": "ratio",
    "hypergraph.partite_edges": "count",
    "hypergraph.dstar": "count",
    "pipeline.pi_attempts": "count",
    "bipartite.aux_edges": "count",
    "bipartite.perfect_ratio": "ratio",
    "bipartite.hall_deficiency": "count",
}


def calibration_ms() -> float:
    """A fixed pure-Python loop; its time shows how busy the machine is."""
    started = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    return (time.perf_counter() - started) * 1000


def environment() -> dict:
    import numpy

    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((workloads.SRC / "hypermatch").glob("*.py")))
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": src_lines,
    }


def setup_seconds(name: str, seed: int) -> float:
    """Set-up time of the workload, measured in a fresh process."""
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), name, str(seed)],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
    return float(done.stdout.strip().splitlines()[-1])


class Checker:
    """Counts trials attempted and the trials that raised or were wrong."""

    def __init__(self, cfg, name: str, seed: int):
        self.cfg, self.name, self.seed = cfg, name, seed
        self.attempted = 0
        self.failed: dict[int, list[str]] = {}

    def fail(self, trial: int, problems: list[str]) -> None:
        if problems:
            self.failed.setdefault(trial, []).extend(problems)

    def check(self, trial: int, outcome) -> None:
        self.fail(trial, workloads.check_outcome(self.cfg, trial, outcome))

    def check_pin(self, records) -> None:
        """At the default seed the first trials' CSV must match its pin."""
        if self.seed != workloads.DEFAULT_SEED:
            return
        got = workloads.csv_sha256(records[:workloads.PINNED_TRIALS])
        want = workloads.PINNED_CSV_SHA256[self.name]
        if got != want:
            for t in range(workloads.PINNED_TRIALS):
                self.fail(t, [f"CSV of the pinned trials has SHA-256 {got}, pinned {want}"])


def _run_or_fail(checker: Checker, fn, trial: int):
    try:
        return fn(checker.cfg, trial)
    except Exception as exc:  # a trial that raises is counted, and the run goes on
        checker.fail(trial, [f"raised {exc!r}"])
        return None


def run_plain(name: str, seed: int, seconds: float) -> tuple[Checker, dict]:
    from hypermatch.experiment import run_trial

    checker = Checker(workloads.config(name, seed), name, seed)
    records, durations, setups = [], [], []
    # The set-up probes are spread evenly over the run, between trials, so
    # that their median spans the machine's speed phases as the trial loop
    # does. Their time is left out of the loop's.
    probing = 0.0
    trial = 0
    started = time.perf_counter()
    while True:
        looped = time.perf_counter() - started - probing
        if len(setups) < SETUP_REPEATS and looped >= len(setups) * seconds / SETUP_REPEATS:
            t0 = time.perf_counter()
            setups.append(setup_seconds(name, seed))
            probing += time.perf_counter() - t0
            continue
        if trial >= workloads.PINNED_TRIALS and looped >= seconds:
            break
        checker.attempted += 1
        t0 = time.perf_counter()
        outcome = _run_or_fail(checker, run_trial, trial)
        durations.append(time.perf_counter() - t0)
        if outcome is not None:
            checker.check(trial, outcome)
            records.append(outcome.record)
        trial += 1
    checker.check_pin(records)
    return checker, {
        "trials_per_s": trial / looped,
        "trial_ms_p50": statistics.median(durations) * 1000,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def run_traced(name: str, seed: int, seconds: float, env: dict) -> tuple[Checker, dict]:
    from hypermatch.experiment import outcomes_to_json, records, records_to_csv, run_trial

    import tracing

    cfg = workloads.config(name, seed)
    checker = Checker(cfg, name, seed)
    tracer = tracing.Tracer()
    outcomes, counts, untraced_ms, traced_trials = [], [], [], []

    def untraced(cfg, t):
        t0 = time.perf_counter()
        outcome = run_trial(cfg, t)
        untraced_ms.append((time.perf_counter() - t0) * 1000)
        return outcome

    def traced(cfg, t):
        return tracing.traced_trial(cfg, t, tracer)

    trial = 0
    started = time.perf_counter()
    while trial < workloads.PINNED_TRIALS or time.perf_counter() - started < seconds:
        checker.attempted += 1
        # alternate which of the pair runs first, so neither gains from going second
        if trial % 2:
            traced_out = _run_or_fail(checker, traced, trial)
            expected = _run_or_fail(checker, untraced, trial)
        else:
            expected = _run_or_fail(checker, untraced, trial)
            traced_out = _run_or_fail(checker, traced, trial)
        if expected is not None and traced_out is not None:
            outcome, trial_counts = traced_out
            checker.check(trial, outcome)
            checker.fail(trial, [f"traced run differs in {field}"
                                 for field in tracing.record_mismatches(expected, outcome)])
            outcomes.append(outcome)
            counts.append(trial_counts)
            traced_trials.append(trial)
        trial += 1
    checker.check_pin([o.record for o in outcomes])

    tracer.trial = -1
    with tracer.span("experiment.serialize"):
        records_to_csv(records(outcomes))
        outcomes_to_json(cfg, outcomes)

    metrics = tracing.layer_metrics(tracer.spans, traced_trials)
    metrics["experiment.serialize_ms"] = tracing.inclusive_times(tracer.spans, "experiment.serialize")[-1]
    traced_ms = tracing.inclusive_times(tracer.spans, tracing.ROOT_SPAN)
    traced_p50 = statistics.median(traced_ms.values()) if traced_ms else 0.0
    metrics["experiment.trial_ms_p50"] = statistics.median(untraced_ms)
    metrics["trace.overhead_pct"] = (traced_p50 / metrics["experiment.trial_ms_p50"] - 1) * 100
    pinned = [c for t, c in zip(traced_trials, counts) if t < workloads.PINNED_TRIALS]
    if pinned:
        metrics.update(tracing.count_metrics(pinned))

    out_dir = workloads.ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write_jsonl(out_dir / f"spans-{name}.jsonl",
                       {"workload": name, "seed": seed, "env": env})
    return checker, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        workloads.load_program()
    except (workloads.ProgramMissing, ImportError) as exc:
        print(f"bench: cannot load hypermatch: {exc}", file=sys.stderr)
        return 2

    env = environment()
    env["calibration_ms_start"] = calibration_ms()
    try:
        if args.trace:
            checker, metrics = run_traced(args.workload, args.seed, args.seconds, env)
        else:
            checker, metrics = run_plain(args.workload, args.seed, args.seconds)
    except (subprocess.SubprocessError, ValueError, OSError) as exc:
        print(f"bench: {args.workload} could not run: {exc}", file=sys.stderr)
        return 2
    env["calibration_ms_end"] = calibration_ms()

    units = PER_LAYER if args.trace else END_TO_END
    shown = units if args.trace else {**END_TO_END, **PRINTED_ONLY}
    # a run whose pinned trials all failed lacks the counts; it reports
    # them as 0 beside "correct": false
    metrics = {m: metrics.get(m, 0.0) for m in shown}
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"trials {checker.attempted}")
    for metric, unit in shown.items():
        print(f"  {metric:<30} {metrics[metric]:>14.4f} {unit}")
    print(f"  {'error_rate':<30} {len(checker.failed) / max(checker.attempted, 1):>14.4f} "
          f"ratio ({len(checker.failed)} of {checker.attempted} trials)")
    for trial, problems in sorted(checker.failed.items()):
        print(f"  trial {trial} FAILED: {'; '.join(problems)}")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": not checker.failed,
        "attempted": max(checker.attempted, 1),
        "failed": len(checker.failed),
        "metrics": {m: {"value": metrics[m], "unit": u} for m, u in units.items()},
    }))
    return 0 if not checker.failed else 1


if __name__ == "__main__":
    sys.exit(main())
