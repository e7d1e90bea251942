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
from dataclasses import asdict, fields
from pathlib import Path

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


def _emit(payload: dict, file=None) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True), file=file)


def _given(args, config) -> dict:
    """The flags set on the command line that name a field of the config class."""
    return {f.name: getattr(args, f.name) for f in fields(config) if hasattr(args, f.name)}


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
    outcome = find_perfect_matching(h, args.epsilon, PipelineConfig(**_given(args, PipelineConfig)),
                                    args.seed)
    summary = {name: getattr(outcome, name) for name in (
        "matched", "verified", "failure_stage", "alpha", "partition_attempts",
        "partition_passed", "partition_worst_deviation", "pi_attempts")}
    summary.update(delta_star=outcome.min_transversal_codegree, out=args.out)
    if outcome.matched:
        write_matching(args.out, outcome.matching)
    else:
        summary["certificate"] = asdict(outcome.certificate) if outcome.certificate else None
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            _emit(summary, fh)
    _emit(summary)
    return 0 if outcome.matched else 2


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
    if args.config is None:
        cfg = exp.ExperimentConfig.from_dict(_given(args, exp.ExperimentConfig))
    else:
        cfg = exp.ExperimentConfig.from_json(Path(args.config).read_text(encoding="utf-8"))
    outcomes = exp.run_experiment(cfg, workers=args.workers)
    recs = exp.records(outcomes)
    if args.out:
        if args.format == "csv":
            exp.write_records_csv(args.out, recs)
        else:
            exp.write_outcomes_json(args.out, cfg, outcomes)
    _emit({"config": asdict(cfg), "summary": asdict(exp.summarize(recs)), "out": args.out})
    return 0


class _StrategyAlias(argparse.Action):
    def __call__(self, parser, namespace, alias, option_string=None):
        setattr(namespace, self.dest, _STRATEGIES[alias])  # the pipeline's name


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
    # PipelineConfig flags; one left unset takes the config's own default
    pipeline_flags = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    pipeline_flags.add_argument("--partition-retries", type=int)
    pipeline_flags.add_argument("--pi-budget", type=int)
    pipeline_flags.add_argument("--strategy", choices=tuple(_STRATEGIES), action=_StrategyAlias)

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

    pipe = sub.add_parser("pipeline", parents=[pipeline_flags],
                          help="find a perfect matching through the bipartite reduction")
    pipe.add_argument("--in", required=True)
    pipe.add_argument("--epsilon", type=float, required=True)
    pipe.add_argument("--seed", type=int, required=True)
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

    # ExperimentConfig fields: the flags given go through from_dict, as a --config file does
    run = sub.add_parser("experiment", parents=[pipeline_flags], argument_default=argparse.SUPPRESS,
                         help="seeded Monte Carlo trials with CSV/JSON output")
    run.add_argument("--config", default=None, help="JSON config file; overrides the flags")
    run.add_argument("--n", type=int)
    run.add_argument("--k", type=int)
    run.add_argument("--p", type=float)
    run.add_argument("--epsilon", type=float)
    run.add_argument("--trials", type=int)
    run.add_argument("--seed", dest="base_seed", type=int, default=0)
    run.add_argument("--adversary", choices=exp.ADVERSARIES)
    run.add_argument("--threshold", dest="greedy_threshold", type=int)
    run.add_argument("--v1-size", type=int)
    run.add_argument("--timing", dest="record_timing", action="store_true")
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
