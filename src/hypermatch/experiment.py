"""Seeded Monte Carlo experiments over (n, k, p, epsilon, adversary).

Each trial is hermetic: it derives its own seed as substream(base_seed,
trial_index), samples a random hypergraph, applies the configured
adversary, runs the matching pipeline, and verifies any matching found.
Records are therefore a pure function of the config, independent of the
execution schedule; trials may run concurrently and outputs are always
emitted in trial order.

Wall-clock timing is optional (record_timing): runtime_ms is written as 0
when timing is off so that identical configs produce byte-identical CSV.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import sys
import time
import typing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, asdict, astuple, dataclass
from typing import Optional, Sequence

from .adversary import greedy_budget_adversary, parity_adversary
from .hypergraph import Edge, Hypergraph
from .pipeline import (
    STRATEGIES,
    HallCertificate,
    PipelineConfig,
    find_perfect_matching,
)
from .rng import substream
from .sampling import sample_hypergraph

ADVERSARIES = ("none", "parity", "greedy")

# substream labels for the stages inside one trial
_LABEL_SAMPLE = 1
_LABEL_ADVERSARY = 2
_LABEL_PIPELINE = 3

@dataclass(frozen=True)
class ExperimentConfig:
    n: int
    k: int
    p: float
    epsilon: float
    trials: int
    base_seed: int
    adversary: str = "none"
    greedy_threshold: Optional[int] = None  # None: ceil((1/2 + epsilon) * n * p)
    v1_size: Optional[int] = None           # None: default odd prefix
    partition_retries: int = PipelineConfig.partition_retries
    pi_budget: int = PipelineConfig.pi_budget
    strategy: str = PipelineConfig.strategy
    record_timing: bool = False

    def validate(self) -> None:
        self._check_types(asdict(self))
        if self.k < 2 or self.n < self.k or self.n % self.k:
            raise ValueError("need n >= k >= 2 with k dividing n")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
        if not 0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be positive and finite")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.adversary not in ADVERSARIES:
            raise ValueError(f"adversary must be one of {ADVERSARIES}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}")
        if self.partition_retries < 1 or self.pi_budget < 1:
            raise ValueError("partition_retries and pi_budget must be at least 1")
        if self.resolved_threshold() < 0:
            raise ValueError("greedy threshold must be nonnegative")
        if self.v1_size is not None and (self.v1_size % 2 == 0 or not 0 < self.v1_size <= self.n):
            raise ValueError("v1_size must be odd and in (0, n]")

    def resolved_threshold(self) -> int:
        """Greedy deletion budget: the co-degree hypothesis boundary."""
        if self.greedy_threshold is not None:
            return self.greedy_threshold
        bound = (0.5 + self.epsilon) * self.n * self.p
        if not math.isfinite(bound):
            raise ValueError(f"epsilon {self.epsilon!r} makes the greedy threshold (1/2 + epsilon)*n*p non-finite")
        return math.ceil(bound)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        """Parse a config file's text with :meth:`from_dict`'s checks."""
        try:
            return cls.from_dict(json.loads(text))
        except RecursionError:
            raise ValueError("config JSON nests too deeply") from None

    @classmethod
    def from_dict(cls, data) -> "ExperimentConfig":
        """A config from outside values (a JSON object, the CLI's flags); unknown,
        missing or wrongly typed fields raise ValueError."""
        if not isinstance(data, dict):
            raise ValueError("config must be a JSON object")
        fields = cls.__dataclass_fields__
        unknown = set(data) - set(fields)
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        missing = [name for name, f in fields.items() if f.default is MISSING and name not in data]
        if missing:
            raise ValueError(f"missing config fields: {missing}")
        cls._check_types(data)
        hints = typing.get_type_hints(cls)
        # an int for a float field is stored as a float: 1 and 1.0 write the same records
        return cls(**{name: float(v) if hints[name] is float else v for name, v in data.items()})

    @classmethod
    def _check_types(cls, values: dict) -> None:
        """ValueError unless each value has its field's type; an int within
        the float range passes as a float, a bool only as a bool."""
        hints = typing.get_type_hints(cls)
        for name, value in values.items():
            allowed = typing.get_args(hints[name]) or (hints[name],)
            allowed += (int,) if float in allowed else ()
            if not isinstance(value, allowed) or isinstance(value, bool) and bool not in allowed:
                expected = cls.__dataclass_fields__[name].type
                raise ValueError(f"config field {name!r} must be {expected}, got {value!r}")
            if float in allowed and isinstance(value, int) and abs(value) > sys.float_info.max:
                raise ValueError(f"config field {name!r} holds an int beyond the float range")


@dataclass(frozen=True)
class ExperimentRecord:
    trial: int
    seed: int
    n: int
    k: int
    p: float
    epsilon: float
    adversary: str
    edges_before: int
    edges_after: int
    residual_min_codegree: int
    partition_worst_deviation: float
    delta_star: int
    pi_attempts: int
    matched: bool
    verified: bool
    failure_stage: str
    runtime_ms: int


CSV_COLUMNS = tuple(ExperimentRecord.__dataclass_fields__)


@dataclass(frozen=True)
class TrialOutcome:
    """One trial's record plus the artifacts behind it."""

    record: ExperimentRecord
    matching: Optional[tuple[Edge, ...]]
    certificate: Optional[HallCertificate]
    alpha: float
    partition_attempts: int
    partition_passed: bool
    strategy: str

    def to_jsonable(self) -> dict:
        """The record's fields next to the artifacts; tuples serialize as JSON lists."""
        data = asdict(self)
        data.update(data.pop("record"))
        return data


def derive_trial_hypergraphs(cfg: ExperimentConfig, trial: int) -> tuple[Hypergraph, Hypergraph]:
    """(sampled, post-adversary) hypergraphs of one trial, re-derivable
    from the config alone."""
    seed = substream(cfg.base_seed, trial)
    sampled = sample_hypergraph(cfg.n, cfg.k, cfg.p, substream(seed, _LABEL_SAMPLE))
    if cfg.adversary == "none":
        return sampled, sampled
    if cfg.adversary == "parity":
        v1 = None if cfg.v1_size is None else range(cfg.v1_size)
        return sampled, parity_adversary(sampled, v1).result
    outcome = greedy_budget_adversary(
        sampled, cfg.resolved_threshold(), substream(seed, _LABEL_ADVERSARY))
    return sampled, outcome.result


def run_trial(cfg: ExperimentConfig, trial: int) -> TrialOutcome:
    started = time.perf_counter()
    seed = substream(cfg.base_seed, trial)
    sampled, resisted = derive_trial_hypergraphs(cfg, trial)
    residual = resisted.codegree_extremes()[0]
    pipeline_cfg = PipelineConfig(
        partition_retries=cfg.partition_retries,
        pi_budget=cfg.pi_budget,
        strategy=cfg.strategy,
    )
    outcome = find_perfect_matching(
        resisted, cfg.epsilon, pipeline_cfg, substream(seed, _LABEL_PIPELINE))
    elapsed_ms = int(round((time.perf_counter() - started) * 1000)) if cfg.record_timing else 0
    record = ExperimentRecord(
        trial=trial,
        seed=seed,
        n=cfg.n,
        k=cfg.k,
        p=cfg.p,
        epsilon=cfg.epsilon,
        adversary=cfg.adversary,
        edges_before=sampled.edge_count(),
        edges_after=resisted.edge_count(),
        residual_min_codegree=residual,
        partition_worst_deviation=outcome.partition_worst_deviation,
        delta_star=outcome.min_transversal_codegree,
        pi_attempts=outcome.pi_attempts,
        matched=outcome.matched,
        verified=outcome.verified,
        failure_stage=outcome.failure_stage or "",
        runtime_ms=elapsed_ms,
    )
    return TrialOutcome(
        record=record,
        matching=outcome.matching,
        certificate=outcome.certificate,
        alpha=outcome.alpha,
        partition_attempts=outcome.partition_attempts,
        partition_passed=outcome.partition_passed,
        strategy=cfg.strategy,
    )


def run_experiment(cfg: ExperimentConfig, workers: int = 1) -> list[TrialOutcome]:
    """All trials, in trial order regardless of scheduling, on at most
    min(workers, trials, CPUs) threads."""
    cfg.validate()
    if workers < 1:
        raise ValueError("workers must be at least 1")
    indices = range(cfg.trials)
    threads = min(workers, cfg.trials, os.cpu_count() or 1)
    if threads == 1:
        return [run_trial(cfg, t) for t in indices]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(lambda t: run_trial(cfg, t), indices))


def records(outcomes: Sequence[TrialOutcome]) -> list[ExperimentRecord]:
    return [o.record for o in outcomes]


# -- serialization ----------------------------------------------------------


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def records_to_csv(recs: Sequence[ExperimentRecord]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows([_cell(value) for value in astuple(rec)] for rec in recs)
    return buffer.getvalue()


def write_records_csv(path, recs: Sequence[ExperimentRecord]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(records_to_csv(recs))


def _parse_cell(kind: type, cell: str):
    if kind is bool and cell not in ("true", "false"):
        raise ValueError(f"expected true or false, got {cell!r}")
    return cell == "true" if kind is bool else kind(cell)


def read_records_csv(path) -> list[ExperimentRecord]:
    """Records of a records_to_csv file; a malformed cell raises ValueError
    naming the path, the line and the column."""
    kinds = typing.get_type_hints(ExperimentRecord)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if tuple(header or ()) != CSV_COLUMNS:
            raise ValueError(f"{path}: unexpected CSV header {header!r}")
        out = []
        for row in reader:
            if len(row) != len(CSV_COLUMNS):
                raise ValueError(f"{path}: row with {len(row)} cells")
            values = {}
            for col, cell in zip(CSV_COLUMNS, row):
                try:
                    values[col] = _parse_cell(kinds[col], cell)
                except ValueError as exc:
                    raise ValueError(f"{path}:{reader.line_num}: column {col!r}: {exc}") from None
            out.append(ExperimentRecord(**values))
    return out


def outcomes_to_json(cfg: ExperimentConfig, outcomes: Sequence[TrialOutcome]) -> str:
    payload = {
        "config": asdict(cfg),
        "records": [o.to_jsonable() for o in outcomes],
        "summary": asdict(summarize(records(outcomes))),
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def write_outcomes_json(path, cfg: ExperimentConfig, outcomes: Sequence[TrialOutcome]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(outcomes_to_json(cfg, outcomes))
        fh.write("\n")


# -- aggregation ------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentSummary:
    trials: int
    matched: int
    success_rate: float  # exact count ratio, rounded to 6 decimal places
    mean_pi_attempts: float
    runtime_ms_p50: int
    runtime_ms_p90: int
    runtime_ms_max: int


def _quantile(ordered: Sequence[int], q: float) -> int:
    # the ceil(q * len)-th order statistic, clamped to the ends
    idx = max(1, math.ceil(q * len(ordered)))
    return ordered[min(idx, len(ordered)) - 1]


def summarize(recs: Sequence[ExperimentRecord]) -> ExperimentSummary:
    if not recs:
        raise ValueError("cannot summarize zero records")
    matched = sum(1 for r in recs if r.matched)
    runtimes = sorted(r.runtime_ms for r in recs)
    return ExperimentSummary(
        trials=len(recs),
        matched=matched,
        success_rate=round(matched / len(recs), 6),
        mean_pi_attempts=sum(r.pi_attempts for r in recs) / len(recs),
        runtime_ms_p50=_quantile(runtimes, 0.5),
        runtime_ms_p90=_quantile(runtimes, 0.9),
        runtime_ms_max=runtimes[-1],
    )
