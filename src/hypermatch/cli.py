"""Command line front end.

Subcommands: gen, partition, adversary, pipeline, match, stats, experiment.
Every command prints a JSON summary on stdout; files are written where
--out says. Exit codes: 0 on success, 2 when the pipeline reports a
failure, 1 on usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from . import experiment as exp
from .adversary import greedy_budget_adversary, parity_adversary
from .bipartite import hall_certificate, max_matching
from .extensions import extension_stats_empirical, extension_stats_exact
from .fileio import (
    read_bipartite,
    read_extension_matrix,
    read_hypergraph,
    write_hypergraph,
    write_matching,
)
from .pipeline import STRATEGY_FULL, STRATEGY_PI1, PipelineConfig, find_perfect_matching
from .sampling import sample_balanced_partition, sample_hypergraph, verify_partition

_STRATEGIES = {"pi1": STRATEGY_PI1, "full": STRATEGY_FULL}


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _cmd_gen(args) -> int:
    h = sample_hypergraph(args.n, args.k, args.p, args.seed)
    write_hypergraph(args.out, h)
    _emit({"n": h.n, "k": h.k, "p": args.p, "seed": args.seed,
           "edges": h.edge_count(), "out": args.out})
    return 0


def _cmd_partition(args) -> int:
    h = read_hypergraph(getattr(args, "in"))
    partition = sample_balanced_partition(h.n, h.k, args.seed)
    report = verify_partition(h, partition, args.alpha)
    _emit({
        "alpha": report.alpha,
        "passed": report.passed,
        "worst_deviation": report.worst_deviation,
        "checked": report.checked,
        "skipped": report.skipped,
        "violation_count": len(report.violations),
        "violations": [
            {"subset": list(x), "part": i, "count": c, "codegree": d}
            for x, i, c, d in report.violations
        ],
        "parts": [list(part) for part in partition.parts],
    })
    return 0


def _cmd_adversary(args) -> int:
    h = read_hypergraph(getattr(args, "in"))
    if args.mode == "parity":
        v1 = range(args.v1_size) if args.v1_size is not None else None
        outcome = parity_adversary(h, v1)
    else:
        if args.threshold is None:
            raise ValueError("greedy mode needs --threshold")
        outcome = greedy_budget_adversary(h, args.threshold, args.seed)
    write_hypergraph(args.out, outcome.result)
    payload = outcome.to_jsonable()
    payload["edges_before"] = h.edge_count()
    payload["out"] = args.out
    _emit(payload)
    return 0


def _cmd_pipeline(args) -> int:
    h = read_hypergraph(getattr(args, "in"))
    cfg = PipelineConfig(
        partition_retries=args.partition_retries,
        pi_budget=args.pi_budget,
        strategy=_STRATEGIES[args.strategy],
    )
    outcome = find_perfect_matching(h, args.epsilon, cfg, args.seed)
    summary = {
        "matched": outcome.matched,
        "verified": outcome.verified,
        "failure_stage": outcome.failure_stage,
        "alpha": outcome.alpha,
        "partition_attempts": outcome.partition_attempts,
        "partition_passed": outcome.partition_passed,
        "partition_worst_deviation": outcome.partition_worst_deviation,
        "delta_star": outcome.min_transversal_codegree,
        "pi_attempts": outcome.pi_attempts,
        "out": args.out,
    }
    if outcome.matched:
        write_matching(args.out, outcome.matching)
        _emit(summary)
        return 0
    failure = dict(summary)
    failure["certificate"] = asdict(outcome.certificate) if outcome.certificate else None
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(failure, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _emit(failure)
    return 2


def _cmd_match(args) -> int:
    graph = read_bipartite(args.bipartite)
    matching = max_matching(graph)
    payload = {
        "m": graph.m,
        "size": matching.size,
        "perfect": matching.is_perfect(),
        "rows": list(matching.row_to_right),
    }
    if not matching.is_perfect() and graph.m > 0:
        payload["certificate"] = asdict(hall_certificate(graph, matching))
    _emit(payload)
    return 0


def _cmd_stats(args) -> int:
    matrix = read_extension_matrix(args.matrix)
    if args.mode == "exact":
        stats = extension_stats_exact(matrix, alpha=args.alpha)
    else:
        if args.samples is None:
            raise ValueError("empirical mode needs --samples")
        stats = extension_stats_empirical(matrix, args.samples, args.seed, alpha=args.alpha)
    _emit(stats.to_jsonable())
    return 0


def _cmd_experiment(args) -> int:
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = exp.ExperimentConfig.from_json(fh.read())
    else:
        required = ("n", "k", "p", "epsilon", "trials")
        missing = [name for name in required if getattr(args, name) is None]
        if missing:
            raise ValueError(f"missing required options: {', '.join('--' + m for m in missing)}")
        cfg = exp.ExperimentConfig(
            n=args.n, k=args.k, p=args.p, epsilon=args.epsilon,
            trials=args.trials, base_seed=args.seed,
            adversary=args.adversary,
            greedy_threshold=args.threshold,
            v1_size=args.v1_size,
            partition_retries=args.partition_retries,
            pi_budget=args.pi_budget,
            strategy=_STRATEGIES[args.strategy],
            record_timing=args.timing,
        )
    outcomes = exp.run_experiment(cfg, workers=args.workers)
    recs = exp.records(outcomes)
    if args.out:
        if args.format == "csv":
            exp.write_records_csv(args.out, recs)
        else:
            exp.write_outcomes_json(args.out, cfg, outcomes)
    _emit({"config": asdict(cfg), "summary": asdict(exp.summarize(recs)), "out": args.out})
    return 0


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error (argparse's own code, 2, means a pipeline failure here)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hypermatch",
        description="Random hypergraph matchings under co-degree deletion adversaries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="sample a random hypergraph to a file")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--k", type=int, required=True)
    gen.add_argument("--p", type=float, required=True)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", required=True)
    gen.set_defaults(handler=_cmd_gen)

    part = sub.add_parser("partition", help="sample a balanced partition and report the co-degree split")
    part.add_argument("--in", required=True)
    part.add_argument("--seed", type=int, required=True)
    part.add_argument("--alpha", type=float, required=True)
    part.set_defaults(handler=_cmd_partition)

    adv = sub.add_parser("adversary", help="apply an edge-deletion adversary")
    adv.add_argument("--in", required=True)
    adv.add_argument("--mode", choices=("parity", "greedy"), required=True)
    adv.add_argument("--v1-size", dest="v1_size", type=int, default=None)
    adv.add_argument("--threshold", type=int, default=None)
    adv.add_argument("--seed", type=int, default=0)
    adv.add_argument("--out", required=True)
    adv.set_defaults(handler=_cmd_adversary)

    pipe = sub.add_parser("pipeline", help="find a perfect matching through the bipartite reduction")
    pipe.add_argument("--in", required=True)
    pipe.add_argument("--epsilon", type=float, required=True)
    pipe.add_argument("--seed", type=int, required=True)
    pipe.add_argument("--partition-retries", dest="partition_retries", type=int,
                      default=PipelineConfig.partition_retries)
    pipe.add_argument("--pi-budget", dest="pi_budget", type=int,
                      default=PipelineConfig.pi_budget)
    pipe.add_argument("--strategy", choices=tuple(_STRATEGIES), default="pi1")
    pipe.add_argument("--out", required=True)
    pipe.set_defaults(handler=_cmd_pipeline)

    match = sub.add_parser("match", help="maximum matching of a standalone bipartite graph")
    match.add_argument("--bipartite", required=True)
    match.set_defaults(handler=_cmd_match)

    stats = sub.add_parser("stats", help="degree statistics of a membership matrix")
    stats.add_argument("--mode", choices=("exact", "empirical"), required=True)
    stats.add_argument("--matrix", required=True)
    stats.add_argument("--samples", type=int, default=None)
    stats.add_argument("--seed", type=int, default=0)
    stats.add_argument("--alpha", type=float, default=None)
    stats.set_defaults(handler=_cmd_stats)

    run = sub.add_parser("experiment", help="seeded Monte Carlo trials with CSV/JSON output")
    run.add_argument("--config", default=None, help="JSON config file; overrides the flags")
    run.add_argument("--n", type=int, default=None)
    run.add_argument("--k", type=int, default=None)
    run.add_argument("--p", type=float, default=None)
    run.add_argument("--epsilon", type=float, default=None)
    run.add_argument("--trials", type=int, default=None)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--adversary", choices=exp.ADVERSARIES, default="none")
    run.add_argument("--threshold", type=int, default=None)
    run.add_argument("--v1-size", dest="v1_size", type=int, default=None)
    run.add_argument("--partition-retries", dest="partition_retries", type=int,
                      default=PipelineConfig.partition_retries)
    run.add_argument("--pi-budget", dest="pi_budget", type=int,
                      default=PipelineConfig.pi_budget)
    run.add_argument("--strategy", choices=tuple(_STRATEGIES), default="pi1")
    run.add_argument("--timing", action="store_true")
    run.add_argument("--workers", type=int, default=1)
    run.add_argument("--out", default=None)
    run.add_argument("--format", choices=("csv", "json"), default="csv")
    run.set_defaults(handler=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
