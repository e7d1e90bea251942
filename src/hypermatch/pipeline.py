"""Perfect matchings via the partition / permutation / bipartite reduction.

Given a k-uniform hypergraph H with k | n, the pipeline

a. derives the partition tolerance alpha = eps / (1 + 2*eps), the largest
   value with (1 - alpha) * (1/2 + eps) >= 1/2 + eps/2 (met with equality);
b. draws the balanced partitions of the retries as part-label blocks, 32
   retries from one rng.permutations call, and keeps the first whose
   co-degree split passes at alpha, else the first of least worst deviation
   (small instances rarely pass; matching success decides).
   Up to n = 64, sampling.choose_partition scores every retry on every key
   from 64-bit vertex sets, one popcount per (key, part). Beyond, it bounds
   each retry on the lowest-degree keys in packed words of k-1 fields per
   retry (the last part's count is the co-degree minus the others'), and
   counts every key only for the few retries that can still pass or win,
   as many in one pass as a word holds. Only the winner is built as a
   partition;
c. induces the k-partite restriction H' and records its minimum transversal
   co-degree, counted in the pass that builds the row bitmasks of step d
   from per-vertex weight tables;
d. searches permutation families pi for an auxiliary bipartite graph with
   a perfect matching (find_matching_permutations);
e. translates the bipartite matching back to hyperedges and verifies it.

A perfect matching of the auxiliary graph always translates to a perfect
matching of H', hence of H; failures carry the Hall certificate of the last
attempt.
"""

from __future__ import annotations

import math
import operator
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
from .sampling import _partition_labels, choose_partition

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
    position, _, rows, _ = partite._row_table()
    [index] = _row_index(partite, position[np.asarray(family.maps)][None])
    return BipartiteGraph._from_rows(rows[index])


def _row_index(partite: PartiteHypergraph, local: np.ndarray) -> np.ndarray:
    """(B, m) row-table entries of the families in a block: family b puts
    parts[j][local[b, j, i]] in row i, identity past local.shape[1]."""
    m = partite.m
    index = local[:, 0]
    for j in range(1, partite.k - 1):
        index = index * m
        index += local[:, j] if j < local.shape[1] else np.arange(m)
    return index


def _balanced(partite: PartiteHypergraph, index: np.ndarray) -> list[int]:
    """Positions b whose family puts as many rows in each row-table component
    as that component has last-part vertices; the others have no perfect
    matching (PartiteHypergraph._row_components)."""
    labels, sizes = partite._row_components()
    count = len(sizes)
    flat = labels[index] + count * np.arange(len(index))[:, None]
    rows = np.bincount(flat.ravel(), minlength=count * len(index)).reshape(-1, count)
    return np.flatnonzero((rows == sizes).all(axis=1)).tolist()


def _family_at(partite: PartiteHypergraph, local: np.ndarray) -> PermutationFamily:
    """The vertex family of part-local positions as _row_index reads them."""
    maps = tuple(tuple(part[p] for p in perm) for part, perm in zip(partite.parts, local.tolist()))
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
    min_degree is the winning auxiliary graph's minimum degree, which a
    caller compares with (1/2 + eps/2) * m * p from its own inputs.
    """

    success: bool
    family: Optional[PermutationFamily]
    matching: Optional[BipartiteMatching]
    attempts: int
    certificate: Optional[HallCertificate] = None
    min_degree: Optional[int] = None


def _drawn_positions(m: int, shuffles: int, seed: int, count: int) -> Iterator[np.ndarray]:
    """Part-local positions of attempts 1..count as (B, shuffles, m) blocks,
    attempt 1 alone, then _MAX_BLOCK attempts a block: row t of the
    concatenated blocks is attempt t + 1, the ``shuffles`` successive
    ``Rng.permutation(m)`` draws of the stream substream(seed, t + 1), all
    drawn by one rng.permutations call per block."""
    first, stop, size = 1, count + 1, 1
    while first < stop:
        labels = np.arange(first, min(first + size, stop), dtype=np.uint64)
        yield permutations(substreams(seed, labels), m, shuffles)
        first, size = first + len(labels), _MAX_BLOCK


def find_matching_permutations(partite: PartiteHypergraph, budget: int, seed: int,
                               strategy: str = STRATEGY_PI1) -> PiSearch:
    """Retry random permutation families until the auxiliary graph has a
    perfect matching.

    Row i of the auxiliary bipartite graph of a family pi is
    {pi_1(i), ..., pi_{k-1}(i)}, adjacent to v in the last part exactly when
    the combined k-set is an edge of the restriction; the first pi whose
    graph has a perfect matching wins. Strategy "pi1-only" randomizes the
    first permutation and keeps the others at the identity; "full-random"
    randomizes all k-1. Attempt t shuffles each randomized part with the
    stream substream(seed, t), so retries are independent and the search is
    deterministic in (inputs, seed).

    rng.permutations draws attempt 1 alone and then each block of
    _MAX_BLOCK attempts (2-1025, 1026-2049, ...) as one array
    (_drawn_positions), and the block's rows are looked up in the row table
    at once (_row_index). A search won at attempt 1 draws only that
    attempt; one won later draws a whole block, the price of deciding a
    failing search in few calls (3 blocks for 2,000 attempts). Every
    auxiliary graph is a subgraph of the row table's graph between the
    tuples of parts 0..k-2 and the last part, so once attempt 1 has failed,
    one bincount per block screens the attempts by that graph's components
    (_balanced): an attempt with more rows in a component than the
    component has last-part vertices has no perfect matching. Each attempt
    left to decide reads only its own m int row masks from the row table, by
    one fancy index, and the exact bitset test bipartite._is_perfect decides
    it. Only the winner is built as vertices, from its uint64 rows
    (BipartiteGraph._from_rows); Hopcroft-Karp runs once, on the winner,
    whose matching is translated, or on the last attempt of a failed search,
    whose maximum matching yields the Hall certificate.
    """
    budget = operator.index(budget)
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    shuffles = partite.k - 1 if strategy == STRATEGY_FULL else 1
    _, masks, rows, _ = partite._row_table()
    tried = 0
    for block in _drawn_positions(partite.m, shuffles, seed, budget):
        index = _row_index(partite, block)
        # attempt 1 is decided alone; once it fails, table components screen the rest
        for b in _balanced(partite, index) if tried else range(len(block)):
            if _is_perfect(masks[index[b]].tolist()):
                graph = BipartiteGraph._from_rows(rows[index[b]])
                return PiSearch(
                    success=True, family=_family_at(partite, block[b]), matching=max_matching(graph),
                    attempts=tried + b + 1, min_degree=graph.min_degree())
        tried += len(block)
    graph = BipartiteGraph._from_rows(rows[index[-1]])  # the last attempt's rows
    return PiSearch(success=False, family=None, matching=None, attempts=budget,
                    certificate=hall_certificate(graph))


def partition_tolerance(eps: float) -> float:
    """Largest alpha with (1 - alpha) * (1/2 + eps) >= 1/2 + eps/2; 1/2 once 2 * eps overflows."""
    return 0.5 if 2.0 * eps == math.inf else eps / (1.0 + 2.0 * eps)


@dataclass(frozen=True)
class PipelineConfig:
    partition_retries: int = 20
    pi_budget: int = 100
    strategy: str = STRATEGY_PI1


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
    """Run the full reduction on a hypergraph with k | n and finite eps > 0;
    partition_retries and pi_budget are integers (operator.index), at least 1."""
    if hypergraph.n % hypergraph.k:
        raise ValueError("k must divide n for a perfect matching to exist")
    if not 0 < eps < math.inf:
        raise ValueError("eps must be positive and finite")
    cfg = config if config is not None else PipelineConfig()
    retries = operator.index(cfg.partition_retries)
    if retries < 1:
        raise ValueError("partition_retries must be at least 1")
    alpha = partition_tolerance(eps)

    partition_seed = substream(seed, _LABEL_PARTITION)
    # retry t is sample_balanced_partition(n, k, substream(partition_seed, t)), as part labels
    best_partition, best_deviation, attempts = choose_partition(
        hypergraph, _partition_labels(hypergraph.n, hypergraph.k, partition_seed, retries), alpha)

    partite = induce_partite(hypergraph, best_partition)
    dstar = partite.min_transversal_codegree()
    search = find_matching_permutations(partite, cfg.pi_budget, substream(seed, _LABEL_PI), cfg.strategy)

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
