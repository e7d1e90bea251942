"""Workloads of the hypermatch benchmark and the check on every trial.

All three workloads use k=3, epsilon=0.2 and the "full-random" permutation
strategy. They differ in which layer of the trial does most of the work:

* greedy-n60: the acceptance-gate config; the sequential greedy adversary
  and per-call Python overhead dominate, pi-search succeeds at once.
* parity-n60: the tightness half of the paper; every trial spends the whole
  pi budget on auxiliary graphs and Hopcroft-Karp, then extracts a Hall
  certificate.
* none-n240: the largest config; sampling, the co-degree index builds,
  induce and the partition search dominate, and memory use shows.

This module imports nothing from hypermatch at import time, so that the
set-up probe can time that import itself.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

DEFAULT_SEED = 2024

# The first PINNED_TRIALS trials of every run are always completed; their
# records_to_csv at DEFAULT_SEED is pinned below, and the exact per-layer
# counts of the traced run are taken over them.
PINNED_TRIALS = 3

COMMON = dict(k=3, epsilon=0.2, strategy="full-random")

WORKLOADS = {
    "greedy-n60": dict(n=60, p=0.5, adversary="greedy",
                       partition_retries=50, pi_budget=200),
    "parity-n60": dict(n=60, p=0.5, adversary="parity",
                       partition_retries=20, pi_budget=2000),
    "none-n240": dict(n=240, p=0.2, adversary="none",
                      partition_retries=20, pi_budget=100),
}

# SHA-256 of records_to_csv over trials 0..PINNED_TRIALS-1 at DEFAULT_SEED.
PINNED_CSV_SHA256 = {
    "greedy-n60": "6e45df0a0e34e16adcc362f14776ed59a856ba671fc0949db497a9f884bef917",
    "parity-n60": "b11ac15b711eb4978c6ddc308fe1b7ffb93d21bb037e53a434b28045588206d1",
    "none-n240": "0cd6ee8ce565de250d8bf9b4eb0fb59d99b577ce2ba63d0d6566fec12eea45ee",
}


class ProgramMissing(RuntimeError):
    """The checkout holds no hypermatch sources under src/."""


def load_program():
    """Import hypermatch from this checkout's src/, never from elsewhere."""
    init = SRC / "hypermatch" / "__init__.py"
    if not init.is_file():
        raise ProgramMissing(f"no hypermatch sources at {init.parent}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import hypermatch

    if Path(hypermatch.__file__).resolve() != init.resolve():
        raise ProgramMissing(f"hypermatch was imported from {hypermatch.__file__}, not {init}")
    return hypermatch


def config(name: str, seed: int):
    """The validated ExperimentConfig of a workload.

    run_trial ignores ``trials``; the benchmark's loop is bounded by time.
    """
    from hypermatch.experiment import ExperimentConfig

    cfg = ExperimentConfig(trials=1_000_000, base_seed=seed, **COMMON, **WORKLOADS[name])
    cfg.validate()
    return cfg


def csv_sha256(records) -> str:
    from hypermatch.experiment import records_to_csv

    return hashlib.sha256(records_to_csv(records).encode("utf-8")).hexdigest()


def check_outcome(cfg, trial: int, outcome) -> list[str]:
    """Violations of what a trial of this workload must produce.

    Greedy and no-adversary trials must end matched and verified with a
    perfect matching of [0, n). Parity trials must fail at pi-search after
    the whole budget, carrying a Hall certificate of deficiency >= 1.
    """
    rec = outcome.record
    problems = []
    if rec.trial != trial or rec.n != cfg.n or rec.adversary != cfg.adversary:
        problems.append("record does not describe this trial")
    if rec.edges_after > rec.edges_before:
        problems.append("adversary added edges")
    if cfg.adversary == "parity":
        if rec.matched or rec.verified or outcome.matching is not None:
            problems.append("parity residual reported a matching")
        if rec.failure_stage != "pi-search":
            problems.append(f"failure_stage {rec.failure_stage!r}, expected 'pi-search'")
        if rec.pi_attempts != cfg.pi_budget:
            problems.append(f"pi_attempts {rec.pi_attempts}, expected {cfg.pi_budget}")
        cert = outcome.certificate
        if cert is None or cert.deficiency < 1:
            problems.append("no Hall certificate of deficiency >= 1")
        return problems
    if not (rec.matched and rec.verified) or rec.failure_stage:
        problems.append(f"not matched and verified (failure_stage {rec.failure_stage!r})")
        return problems
    edges = outcome.matching or ()
    covered = sorted(v for e in edges for v in e)
    if any(len(set(e)) != cfg.k for e in edges) or covered != list(range(cfg.n)):
        problems.append("matching is not a partition of [0, n) into k-sets")
    return problems
