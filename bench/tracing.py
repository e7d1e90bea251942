"""Traced re-run of one trial, built from hypermatch's public functions.

``traced_trial`` mirrors ``experiment.run_trial`` and
``pipeline.find_perfect_matching`` step for step: the same substream labels,
the same retry loops, and permutation families redrawn with ``Rng`` as the
pipeline draws them. It wraps a span around each call into a layer, so the
benchmark records spans from outside the program. The caller compares the
outcome with ``run_trial``'s; any difference means this mirror has drifted
from the program and the per-layer numbers no longer describe it.

Spans are kept in memory as [name, start, end, parent, trial] lists, with
parent the index of the enclosing span (-1 at the top), and written once
when the run ends.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from collections import defaultdict

from hypermatch.adversary import greedy_budget_adversary, parity_adversary
from hypermatch.bipartite import hall_certificate, max_matching
from hypermatch.experiment import ExperimentRecord, TrialOutcome
from hypermatch.hypergraph import Hypergraph, check_perfect_matching, induce_partite
from hypermatch.pipeline import (
    STRATEGY_FULL,
    PermutationFamily,
    auxiliary_graph,
    matching_to_edges,
    partition_tolerance,
)
from hypermatch.rng import Rng, substream
from hypermatch.sampling import partition_worst_deviation, sample_balanced_partition, sample_hypergraph

# substream labels of experiment.run_trial and pipeline.find_perfect_matching
LABEL_SAMPLE, LABEL_ADVERSARY, LABEL_PIPELINE = 1, 2, 3
LABEL_PARTITION, LABEL_PI = 1, 2

ROOT_SPAN = "experiment.trial"
PI_SEARCH_SPAN = "pipeline.pi_search"

# Spans whose per-trial self time is reported as "<name>_ms". The first two
# are probes run after the trial, outside its blocking path.
LAYER_SPANS = (
    "hypergraph.index", "rng.block",
    "sampling.sample", "adversary.greedy", "adversary.parity",
    "hypergraph.extremes", "pipeline.partition", "hypergraph.induce",
    "hypergraph.dstar", "pipeline.family", "pipeline.aux_build",
    "bipartite.hk", "bipartite.hall", "pipeline.translate", "hypergraph.verify",
)


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans: list[list] = []
        self.trial = -1
        self._open: list[int] = []

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def write_jsonl(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for name, start, end, parent, trial in self.spans:
                fh.write(json.dumps({
                    "name": name,
                    "start_ms": round((start - self.origin) * 1000, 4),
                    "end_ms": round((end - self.origin) * 1000, 4),
                    "parent": parent,
                    "trial": trial,
                }) + "\n")


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> None:
        t = self.tracer
        self.index = len(t.spans)
        t.spans.append([self.name, 0.0, 0.0, t._open[-1] if t._open else -1, t.trial])
        t._open.append(self.index)
        t.spans[self.index][1] = time.perf_counter()

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        t = self.tracer
        t.spans[self.index][2] = end
        t._open.pop()


def _draw_family(partite, rng: Rng, strategy: str) -> PermutationFamily:
    maps = []
    for j in range(partite.k - 1):
        if j == 0 or strategy == STRATEGY_FULL:
            perm = list(partite.parts[j])
            rng.shuffle(perm)
            maps.append(tuple(perm))
        else:
            maps.append(partite.parts[j])
    return PermutationFamily(tuple(maps))


def _pi_search(partite, cfg, seed: int, span):
    """Returns (attempts, family, matching, certificate, graphs)."""
    graphs = []
    last = None
    for attempt in range(1, cfg.pi_budget + 1):
        with span("pipeline.family"):
            family = _draw_family(partite, Rng(substream(seed, attempt)), cfg.strategy)
        with span("pipeline.aux_build"):
            graph = auxiliary_graph(partite, family)
        with span("bipartite.hk"):
            matching = max_matching(graph)
        graphs.append(graph)
        if matching.is_perfect():
            graph.min_degree()  # find_matching_permutations reports it
            return attempt, family, matching, None, graphs
        last = (graph, matching)
    with span("bipartite.hall"):
        certificate = hall_certificate(*last)
    return cfg.pi_budget, None, None, certificate, graphs


def traced_trial(cfg, trial: int, tracer: Tracer):
    """(TrialOutcome, counts) of one trial, recording its spans."""
    span = tracer.span
    tracer.trial = trial
    with span(ROOT_SPAN):
        seed = substream(cfg.base_seed, trial)
        with span("sampling.sample"):
            sampled = sample_hypergraph(cfg.n, cfg.k, cfg.p, substream(seed, LABEL_SAMPLE))
        if cfg.adversary == "parity":
            with span("adversary.parity"):
                v1 = None if cfg.v1_size is None else range(cfg.v1_size)
                resisted = parity_adversary(sampled, v1).result
        elif cfg.adversary == "greedy":
            with span("adversary.greedy"):
                resisted = greedy_budget_adversary(
                    sampled, cfg.resolved_threshold(), substream(seed, LABEL_ADVERSARY)).result
        else:
            resisted = sampled
        with span("hypergraph.extremes"):
            residual = resisted.codegree_extremes()[0]

        pipeline_seed = substream(seed, LABEL_PIPELINE)
        alpha = partition_tolerance(cfg.epsilon)
        with span("pipeline.partition"):
            partition_seed = substream(pipeline_seed, LABEL_PARTITION)
            best_partition = best_deviation = None
            partition_attempts, passed = 0, False
            for retry in range(cfg.partition_retries):
                partition_attempts = retry + 1
                candidate = sample_balanced_partition(
                    resisted.n, resisted.k, substream(partition_seed, retry))
                deviation = partition_worst_deviation(resisted, candidate)
                if best_deviation is None or deviation < best_deviation:
                    best_partition, best_deviation = candidate, deviation
                if deviation <= alpha:
                    passed = True
                    break
        with span("hypergraph.induce"):
            partite = induce_partite(resisted, best_partition)
        with span("hypergraph.dstar"):
            dstar = partite.min_transversal_codegree()
        with span(PI_SEARCH_SPAN):
            pi_attempts, family, bip_matching, certificate, graphs = _pi_search(
                partite, cfg, substream(pipeline_seed, LABEL_PI), span)

        matching, failure_stage = None, "pi-search"
        if bip_matching is not None:
            with span("pipeline.translate"):
                edges = matching_to_edges(partite, family, bip_matching)
            with span("hypergraph.verify"):
                check = check_perfect_matching(resisted, edges)
            matching, failure_stage = (edges, "") if check.ok else (None, "verification")

        record = ExperimentRecord(
            trial=trial, seed=seed, n=cfg.n, k=cfg.k, p=cfg.p, epsilon=cfg.epsilon,
            adversary=cfg.adversary,
            edges_before=len(sampled.edges), edges_after=len(resisted.edges),
            residual_min_codegree=residual,
            partition_worst_deviation=best_deviation, delta_star=dstar,
            pi_attempts=pi_attempts, matched=matching is not None,
            verified=matching is not None, failure_stage=failure_stage, runtime_ms=0,
        )

    with span("hypergraph.index"):
        Hypergraph(cfg.n, cfg.k, sampled.edges)
    with span("rng.block"):
        Rng(substream(seed, LABEL_SAMPLE)).uniform_block(math.comb(cfg.n, cfg.k))

    outcome = TrialOutcome(
        record=record, matching=matching, certificate=certificate, alpha=alpha,
        partition_attempts=partition_attempts, partition_passed=passed,
        strategy=cfg.strategy,
    )
    counts = {
        "edges": len(sampled.edges),
        "deleted": len(sampled.edges) - len(resisted.edges),
        "partition_attempts": partition_attempts,
        "partition_passed": int(passed),
        "partite_edges": len(partite.hypergraph.edges),
        "dstar": dstar,
        "pi_attempts": pi_attempts,
        "aux_edges": sum(g.edge_count() for g in graphs),
        "perfect": int(bip_matching is not None),
        "hall_deficiency": certificate.deficiency if certificate else None,
    }
    return outcome, counts


def record_mismatches(expected: TrialOutcome, got: TrialOutcome) -> list[str]:
    """Fields where the traced outcome differs from run_trial's."""
    diffs = [f"record.{name}" for name in ExperimentRecord.__dataclass_fields__
             if name != "runtime_ms"
             and getattr(expected.record, name) != getattr(got.record, name)]
    for name in ("matching", "certificate", "alpha", "partition_attempts", "partition_passed"):
        if getattr(expected, name) != getattr(got, name):
            diffs.append(name)
    return diffs


def self_times(spans: list[list]) -> dict[int, dict[str, float]]:
    """Per trial, the summed self time in ms of each span name.

    A span's self time is its duration minus the part its child spans
    cover; children of one span never overlap in a single thread.
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent, trial in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for i, (name, start, end, parent, trial) in enumerate(spans):
        out[trial][name] += (end - start - covered[i]) * 1000
    return out


def inclusive_times(spans: list[list], name: str) -> dict[int, float]:
    """Per trial, the summed duration in ms of the spans called name."""
    out: dict[int, float] = defaultdict(float)
    for span_name, start, end, parent, trial in spans:
        if span_name == name:
            out[trial] += (end - start) * 1000
    return out


def layer_metrics(spans: list[list], trials: list[int]) -> dict[str, float]:
    """Median over trials of each layer's self time, in ms."""
    selfs = self_times(spans)
    pi_total = inclusive_times(spans, PI_SEARCH_SPAN)

    def median(values):
        return statistics.median(values) if values else 0.0

    out = {f"{name}_ms": median([selfs[t].get(name, 0.0) for t in trials])
           for name in LAYER_SPANS}
    out["pipeline.pi_search_ms"] = median([pi_total.get(t, 0.0) for t in trials])
    out["pipeline.pi_search_self_ms"] = median([selfs[t].get(PI_SEARCH_SPAN, 0.0) for t in trials])
    out["trace.unaccounted_ms"] = median([selfs[t].get(ROOT_SPAN, 0.0) for t in trials])
    return out


def count_metrics(counts: list[dict]) -> dict[str, float]:
    """Exact layer counts over a fixed set of trials: per-trial means, plus
    the useful-work ratios over all attempts."""
    n = len(counts)

    def mean(key):
        return sum(c[key] for c in counts) / n

    partition_attempts = sum(c["partition_attempts"] for c in counts)
    pi_attempts = sum(c["pi_attempts"] for c in counts)
    deficiencies = [c["hall_deficiency"] for c in counts if c["hall_deficiency"] is not None]
    return {
        "sampling.edges": mean("edges"),
        "adversary.deleted": mean("deleted"),
        "pipeline.partition_attempts": mean("partition_attempts"),
        "pipeline.partition_pass_ratio": sum(c["partition_passed"] for c in counts) / partition_attempts,
        "hypergraph.partite_edges": mean("partite_edges"),
        "hypergraph.dstar": mean("dstar"),
        "pipeline.pi_attempts": mean("pi_attempts"),
        "bipartite.aux_edges": mean("aux_edges"),
        "bipartite.perfect_ratio": sum(c["perfect"] for c in counts) / pi_attempts,
        "bipartite.hall_deficiency": sum(deficiencies) / len(deficiencies) if deficiencies else 0.0,
    }
