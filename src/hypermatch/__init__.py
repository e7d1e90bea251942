"""Perfect matchings in random k-uniform hypergraphs under co-degree
deletion adversaries: samplers, adversaries, the bipartite reduction
pipeline, tail bound evaluators, and a Monte Carlo experiment harness."""

from .adversary import AdversaryOutcome, default_odd_v1, greedy_budget_adversary, parity_adversary
from .bipartite import (
    BipartiteGraph,
    BipartiteMatching,
    HallCertificate,
    hall_certificate,
    max_matching,
)
from .bounds import BoundValue, binomial_tail_bound, binomial_upper_tail, chernoff_bounds, mcdiarmid_bound
from .extensions import ExtensionMatrix, ExtensionStats, extension_stats_empirical, extension_stats_exact
from .hypergraph import (
    BalancedPartition,
    Hypergraph,
    MatchingCheck,
    PartiteHypergraph,
    PMSearch,
    bruteforce_perfect_matching,
    check_perfect_matching,
    count_perfect_matchings,
    induce_partite,
)
from .pipeline import (
    STRATEGY_FULL,
    STRATEGY_PI1,
    PermutationFamily,
    PipelineConfig,
    PipelineOutcome,
    PiSearch,
    auxiliary_graph,
    find_matching_permutations,
    find_perfect_matching,
    matching_to_edges,
    partition_tolerance,
)
from .pseudorandom import PseudorandomVerdict, is_pseudorandom
from .rng import Rng, mix64, substream
from .sampling import (
    ConcentrationReport,
    PartitionReport,
    check_codegree_concentration,
    partition_worst_deviation,
    sample_balanced_partition,
    sample_hypergraph,
    verify_partition,
)

__version__ = "0.1.0"

__all__ = [
    "AdversaryOutcome",
    "BalancedPartition",
    "BipartiteGraph",
    "BipartiteMatching",
    "BoundValue",
    "ConcentrationReport",
    "ExtensionMatrix",
    "ExtensionStats",
    "HallCertificate",
    "Hypergraph",
    "MatchingCheck",
    "PMSearch",
    "PartiteHypergraph",
    "PartitionReport",
    "PermutationFamily",
    "PiSearch",
    "PipelineConfig",
    "PipelineOutcome",
    "PseudorandomVerdict",
    "Rng",
    "STRATEGY_FULL",
    "STRATEGY_PI1",
    "auxiliary_graph",
    "binomial_tail_bound",
    "binomial_upper_tail",
    "bruteforce_perfect_matching",
    "check_codegree_concentration",
    "check_perfect_matching",
    "chernoff_bounds",
    "count_perfect_matchings",
    "default_odd_v1",
    "extension_stats_empirical",
    "extension_stats_exact",
    "find_matching_permutations",
    "find_perfect_matching",
    "greedy_budget_adversary",
    "hall_certificate",
    "induce_partite",
    "is_pseudorandom",
    "matching_to_edges",
    "max_matching",
    "mcdiarmid_bound",
    "mix64",
    "parity_adversary",
    "partition_tolerance",
    "partition_worst_deviation",
    "sample_balanced_partition",
    "sample_hypergraph",
    "substream",
    "verify_partition",
]
