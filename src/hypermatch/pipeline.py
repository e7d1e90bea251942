"""Perfect matchings via the partition / permutation / bipartite reduction.

Given a k-uniform hypergraph H with k | n, the pipeline

a. derives the partition tolerance alpha = eps / (1 + 2*eps), the largest
   value with (1 - alpha) * (1/2 + eps) >= 1/2 + eps/2 (met with equality);
b. samples balanced partitions and scores them in packed blocks, keeping
   the first whose co-degree split passes at alpha, else the best effort
   partition seen (small instances rarely pass; matching success decides);
c. induces the k-partite restriction H' and records its minimum transversal
   co-degree, counted in the pass that builds the row bitmasks of step d;
d. searches permutation families pi: rows i of the auxiliary bipartite
   graph are {pi_1(i), ..., pi_{k-1}(i)}, adjacent to v in the last part
   exactly when the combined k-set is an edge of H'. The first pi whose
   auxiliary graph has a perfect matching wins. Attempt t draws pi from its
   own substream; rng.permutations shuffles each doubling block of attempts
   (1, 2-3, 4-7, ..., at most 1,024) at once. Rows are bitmasks, and each
   attempt is decided by an exact bitset perfect-or-not test; Hopcroft-Karp
   runs only on the winner, whose matching is translated, and on the last
   attempt of a failed search, whose maximum matching yields the Hall
   certificate;
e. translates the bipartite matching back to hyperedges and verifies it.

A perfect matching of the auxiliary graph always translates to a perfect
matching of H', hence of H; failures carry the Hall certificate of the last
attempt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .bipartite import (
    BipartiteGraph,
    BipartiteMatching,
    HallCertificate,
    _is_perfect,
    hall_certificate,
    max_matching,
)
from .hypergraph import (
    Edge,
    Hypergraph,
    MatchingCheck,
    PartiteHypergraph,
    check_perfect_matching,
    induce_partite,
)
from .rng import permutations, substream, substreams
from .sampling import sample_balanced_partition, score_partitions

STRATEGY_PI1 = "pi1-only"
STRATEGY_FULL = "full-random"
STRATEGIES = (STRATEGY_PI1, STRATEGY_FULL)

# substream labels inside one pipeline run
_LABEL_PARTITION = 1
_LABEL_PI = 2

# attempts per block of family draws: bounds the draw's memory for any budget
_MAX_BLOCK = 1024


@dataclass(frozen=True)
class PermutationFamily:
    """k-1 bijections onto parts 1..k-1; maps[j][i] is the vertex of part j
    placed in row i."""

    maps: tuple[tuple[int, ...], ...]


def _validate_family(partite: PartiteHypergraph, family: PermutationFamily) -> None:
    maps = family.maps
    if len(maps) != partite.k - 1:
        raise ValueError(f"need {partite.k - 1} permutations, got {len(maps)}")
    for j, perm in enumerate(maps):
        if len(perm) != partite.m or set(perm) != set(partite.parts[j]):
            raise ValueError(f"map {j} is not a bijection onto part {j}")


def auxiliary_graph(partite: PartiteHypergraph, family: PermutationFamily) -> BipartiteGraph:
    """Bipartite graph between the m permutation rows and the last part."""
    _validate_family(partite, family)
    position, _, _ = partite._row_table()
    return BipartiteGraph._from_masks(
        _auxiliary_masks(partite, [[position[v] for v in perm] for perm in family.maps]))


def _auxiliary_masks(partite: PartiteHypergraph, local: list[list[int]]) -> list[int]:
    """Row bitmasks of the auxiliary graph of the family putting
    parts[j][local[j][i]] in row i, identity past len(local); run per
    attempt, so it only indexes lists."""
    _, table, _ = partite._row_table()
    m = partite.m
    index = local[0]
    for j in range(1, partite.k - 1):
        index = [i * m + p for i, p in zip(index, local[j] if j < len(local) else range(m))]
    return [table[i] for i in index]


def _family_at(partite: PartiteHypergraph, local: list[list[int]]) -> PermutationFamily:
    """The vertex family of part-local positions as _auxiliary_masks reads them."""
    maps = tuple(tuple(part[p] for p in perm) for part, perm in zip(partite.parts, local))
    return PermutationFamily(maps + partite.parts[len(local):-1])


def matching_to_edges(partite: PartiteHypergraph, family: PermutationFamily,
                      matching: BipartiteMatching) -> tuple[Edge, ...]:
    """Translate a perfect auxiliary matching into hyperedges of H'."""
    if not matching.is_perfect() or len(matching.row_to_right) != partite.m:
        raise ValueError("need a perfect matching of the auxiliary graph")
    _validate_family(partite, family)
    last = partite.parts[-1]
    edges = []
    for i in range(partite.m):
        combo = [perm[i] for perm in family.maps]
        combo.append(last[matching.row_to_right[i]])
        edges.append(tuple(sorted(combo)))
    return tuple(sorted(edges))


@dataclass(frozen=True)
class PiSearch:
    """Outcome of the permutation search.

    certificate is the Hall certificate of the last failed attempt;
    min_degree and degree_target report the auxiliary graph's minimum
    degree against (1/2 + eps/2) * m * p when p is known.
    """

    success: bool
    family: Optional[PermutationFamily]
    matching: Optional[BipartiteMatching]
    attempts: int
    certificate: Optional[HallCertificate] = None
    min_degree: Optional[int] = None
    degree_target: Optional[float] = None


def _drawn_positions(m: int, shuffles: int, seed: int, budget: int) -> Iterator[list[list[int]]]:
    """Part-local positions of attempts 1..budget, yielded one at a time:
    attempt t is ``shuffles`` successive ``Rng.permutation(m)`` draws of the
    stream substream(seed, t), drawn by rng.permutations in doubling blocks
    of attempts (1, 2-3, 4-7, ...) of at most _MAX_BLOCK."""
    first = 1
    while first <= budget:
        stop = min(2 * first, first + _MAX_BLOCK, budget + 1)
        yield from permutations(substreams(seed, np.arange(first, stop, dtype=np.uint64)), m, shuffles)
        first = stop


def find_matching_permutations(partite: PartiteHypergraph, eps: float, p: Optional[float],
                               budget: int, seed: int,
                               strategy: str = STRATEGY_PI1) -> PiSearch:
    """Retry random permutation families until the auxiliary graph has a
    perfect matching.

    Strategy "pi1-only" randomizes the first permutation and keeps the
    others at the identity; "full-random" randomizes all k-1. Attempt t
    shuffles each randomized part with the stream substream(seed, t), so
    retries are independent and the search is deterministic in (inputs,
    seed). rng.permutations draws a block of attempts at once
    (_drawn_positions), and each attempt is decided on row bitmasks by
    bipartite._is_perfect. Only the winner is built as vertices;
    Hopcroft-Karp runs once, on the winner or on the last attempt of a
    failed search.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    target = None if p is None else (0.5 + eps / 2.0) * partite.m * p
    shuffles = partite.k - 1 if strategy == STRATEGY_FULL else 1
    for attempt, local in enumerate(_drawn_positions(partite.m, shuffles, seed, budget), 1):
        masks = _auxiliary_masks(partite, local)
        if _is_perfect(masks):
            graph = BipartiteGraph._from_masks(masks)
            return PiSearch(
                success=True, family=_family_at(partite, local), matching=max_matching(graph),
                attempts=attempt, min_degree=graph.min_degree(), degree_target=target)
    graph = BipartiteGraph._from_masks(masks)  # of the last attempt
    return PiSearch(
        success=False, family=None, matching=None, attempts=budget,
        certificate=hall_certificate(graph), degree_target=target)


def partition_tolerance(eps: float) -> float:
    """Largest alpha with (1 - alpha) * (1/2 + eps) >= 1/2 + eps/2."""
    return eps / (1.0 + 2.0 * eps)


@dataclass(frozen=True)
class PipelineConfig:
    partition_retries: int = 20
    pi_budget: int = 100
    strategy: str = STRATEGY_PI1
    p: Optional[float] = None  # density hint, only used for degree diagnostics


@dataclass(frozen=True)
class PipelineOutcome:
    """Everything one run produced; matching is None exactly when
    failure_stage is set ("pi-search" or "verification")."""

    matching: Optional[tuple[Edge, ...]]
    verified: bool
    failure_stage: Optional[str]
    alpha: float
    partition_attempts: int
    partition_passed: bool
    partition_worst_deviation: float
    min_transversal_codegree: int
    pi_attempts: int
    certificate: Optional[HallCertificate] = None
    check: Optional[MatchingCheck] = None

    @property
    def matched(self) -> bool:
        return self.matching is not None


def find_perfect_matching(hypergraph: Hypergraph, eps: float,
                          config: Optional[PipelineConfig] = None,
                          seed: int = 0) -> PipelineOutcome:
    """Run the full reduction on a hypergraph with k | n and finite eps > 0."""
    if hypergraph.n % hypergraph.k:
        raise ValueError("k must divide n for a perfect matching to exist")
    if not 0 < eps < math.inf:
        raise ValueError("eps must be positive and finite")
    cfg = config if config is not None else PipelineConfig()
    if cfg.partition_retries < 1:
        raise ValueError("partition_retries must be at least 1")
    alpha = partition_tolerance(eps)

    partition_seed = substream(seed, _LABEL_PARTITION)
    candidates = (sample_balanced_partition(hypergraph.n, hypergraph.k, substream(partition_seed, retry))
                  for retry in range(cfg.partition_retries))
    best_partition = best_deviation = None
    for attempts, (candidate, deviation) in enumerate(score_partitions(hypergraph, candidates), 1):
        if best_deviation is None or deviation < best_deviation:
            best_partition, best_deviation = candidate, deviation
        if deviation <= alpha:
            break

    partite = induce_partite(hypergraph, best_partition)
    dstar = partite.min_transversal_codegree()
    search = find_matching_permutations(
        partite, eps, cfg.p, cfg.pi_budget, substream(seed, _LABEL_PI), cfg.strategy)

    common = dict(
        alpha=alpha,
        partition_attempts=attempts,
        partition_passed=best_deviation <= alpha,
        partition_worst_deviation=best_deviation,
        min_transversal_codegree=dstar,
        pi_attempts=search.attempts,
    )
    if not search.success:
        return PipelineOutcome(
            matching=None, verified=False, failure_stage="pi-search",
            certificate=search.certificate, **common)
    edges = matching_to_edges(partite, search.family, search.matching)
    check = check_perfect_matching(hypergraph, edges)
    if not check.ok:
        return PipelineOutcome(
            matching=None, verified=False, failure_stage="verification",
            check=check, **common)
    return PipelineOutcome(
        matching=edges, verified=True, failure_stage=None, check=check, **common)
