"""Seeded sampling and the statistical checks built on it.

The binomial hypergraph sampler enumerates all C(n, k) subsets and spends
one uniform draw on each, so the output is a pure function of
(n, k, p, seed) and edge-count moments match Bin(C(n, k), p) exactly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

import numpy as np

from .hypergraph import BalancedPartition, Edge, Hypergraph, lex_unrank
from .rng import Rng, permutations


def sample_hypergraph(n: int, k: int, p: float, seed: int) -> Hypergraph:
    """Random k-uniform hypergraph: each k-subset is an edge independently
    with probability p, deterministic in the seed.

    Draw t of the stream decides the subset of lexicographic rank t.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if k < 2 or n < k:
        raise ValueError("need n >= k >= 2")
    mask = Rng(seed).uniform_block(math.comb(n, k)) < p
    return Hypergraph._trusted(n, k, lex_unrank(n, k, np.flatnonzero(mask)))


def sample_balanced_partition(n: int, k: int, seed: int) -> BalancedPartition:
    """Uniform equipartition of [0, n) into k parts: one uniform permutation
    cut into k consecutive blocks of size n/k."""
    if k <= 0 or n % k:
        raise ValueError("k must be positive and divide n")
    if n <= 0:
        raise ValueError("n must be positive")
    return BalancedPartition._trusted(permutations([Rng(seed).key], n)[0, 0], k)


# -- partition quality ------------------------------------------------------


@dataclass(frozen=True)
class PartitionReport:
    """Outcome of the co-degree split check.

    violations lists (X, part, d(X, part), d(X)) for every pair whose
    relative deviation |d(X, part) * k / d(X) - 1| exceeds alpha; subsets
    with d(X) = 0 are skipped (the relative criterion is undefined there)
    and counted in ``skipped``.
    """

    alpha: float
    worst_deviation: float
    violations: tuple[tuple[Edge, int, int, int], ...]
    checked: int
    skipped: int

    @property
    def passed(self) -> bool:
        return not self.violations


def _part_counts(hypergraph: Hypergraph, partitions: Iterable[BalancedPartition]):
    """(partition, counts) in turn; counts[i, s]: completions of key s in part i.

    Each (partition, part) pair owns a w-bit field, w = bit_length(max
    co-degree), 64 // w to a uint64 word. No part count exceeds its key's
    co-degree, so fields never carry, and one gather plus one segmented sum
    counts a word. Partitions are drawn a block at a time: as many as fill a
    word, or one whose fields spill over several.
    """
    n, k, degrees = hypergraph.n, hypergraph.k, hypergraph._degrees()
    width = max(1, int(degrees.max(initial=0)).bit_length())
    per_word = 64 // width
    shifts = np.arange(per_word, dtype=np.uint64)[:, None] * np.uint64(width)
    partitions = iter(partitions)
    while block := list(itertools.islice(partitions, max(1, per_word // k))):
        if any(partition.n != n or partition.k != k for partition in block):
            raise ValueError("partition does not match the hypergraph")
        fields = np.arange(len(block))[:, None] * k + [partition.assignment for partition in block]
        word_of, slot = np.divmod(fields, per_word)
        bits = np.uint64(1) << (slot * width).astype(np.uint64)
        words = []
        for word in range(word_of.max() + 1):
            table = np.where(word_of == word, bits, 0).sum(axis=0, dtype=np.uint64)
            sums = np.add.reduceat(table[hypergraph._completions], hypergraph._offsets[:-1])
            words.append((sums >> shifts) & np.uint64((1 << width) - 1))
        counts = np.concatenate(words)[:len(block) * k].astype(np.int64).reshape(len(block), k, len(degrees))
        if (counts.sum(axis=1) != degrees).any():
            raise AssertionError("parts do not cover all completions")
        yield from zip(block, counts)


def _deviations(degrees: np.ndarray, counts: np.ndarray, k: int) -> np.ndarray:
    return np.abs(counts * k / degrees - 1.0)


def score_partitions(hypergraph: Hypergraph, partitions: Iterable[BalancedPartition]
                     ) -> Iterator[tuple[BalancedPartition, float]]:
    """(partition, partition_worst_deviation) in turn, in packed blocks."""
    degrees = hypergraph._degrees()
    for partition, counts in _part_counts(hypergraph, partitions):
        yield partition, float(_deviations(degrees, counts, hypergraph.k).max(initial=0.0))


def partition_worst_deviation(hypergraph: Hypergraph, partition: BalancedPartition) -> float:
    """Cheap path of verify_partition: the worst relative deviation only,
    0.0 when no subset has positive co-degree. score_partitions scores many
    partitions in packed blocks."""
    return next(score_partitions(hypergraph, [partition]))[1]


def verify_partition(hypergraph: Hypergraph, partition: BalancedPartition, alpha: float) -> PartitionReport:
    """Check d(X, V_i) within (1 +/- alpha) * d(X)/k for every
    positive-degree (k-1)-subset X and every part i.

    The comparison is on the relative deviation, with the boundary itself
    passing, so ``violations`` is empty exactly when
    ``worst_deviation <= alpha``. Violations are listed by subset in
    lexicographic order, then by part.
    """
    if not 0 <= alpha < math.inf:
        raise ValueError("alpha must be nonnegative and finite")
    degrees = hypergraph._degrees()
    counts = next(_part_counts(hypergraph, [partition]))[1]
    skipped = math.comb(hypergraph.n, hypergraph.k - 1) - len(degrees)
    dev = _deviations(degrees, counts, hypergraph.k)
    worst = float(dev.max(initial=0.0))
    slots, parts = np.nonzero(dev.T > alpha)
    subsets = map(tuple, lex_unrank(hypergraph.n, hypergraph.k - 1, hypergraph._keys[slots]).tolist())
    violations = tuple(zip(subsets, parts.tolist(), counts[parts, slots].tolist(),
                           degrees[slots].tolist()))
    return PartitionReport(alpha, worst, violations, len(degrees), skipped)


# -- co-degree concentration ------------------------------------------------


@dataclass(frozen=True)
class ConcentrationReport:
    """Whether (1-eps)np <= min co-degree and max co-degree <= (1+eps)np.

    ``offender`` is a worst-offending (k-1)-subset when the check fails
    (the side with the larger absolute breach; the low side on ties).
    """

    ok: bool
    lower: float
    upper: float
    min_codegree: int
    max_codegree: int
    offender: Optional[Edge]
    offender_codegree: Optional[int]


def _subset_with_degree(hypergraph: Hypergraph, degree: int) -> Edge:
    """Lexicographically first (k-1)-subset of an attained co-degree."""
    keys = hypergraph._keys
    if degree == 0:
        # ascending distinct keys agree with 0, 1, 2, ... up to the first gap
        ranks = [int((keys == np.arange(len(keys))).sum())]
    else:
        ranks = keys[hypergraph._degrees() == degree][:1]
    return tuple(lex_unrank(hypergraph.n, hypergraph.k - 1, ranks)[0].tolist())


def check_codegree_concentration(hypergraph: Hypergraph, p: float, eps: float) -> ConcentrationReport:
    if not math.isfinite(eps) or not 0.0 <= p <= 1.0:
        raise ValueError("eps must be finite and p must lie in [0, 1]")
    lower = (1.0 - eps) * hypergraph.n * p
    upper = (1.0 + eps) * hypergraph.n * p
    lo, hi = hypergraph.codegree_extremes()
    low_breach = lower - lo
    high_breach = hi - upper
    if low_breach <= 0 and high_breach <= 0:
        return ConcentrationReport(True, lower, upper, lo, hi, None, None)
    if low_breach >= high_breach:
        offender, degree = _subset_with_degree(hypergraph, lo), lo
    else:
        offender, degree = _subset_with_degree(hypergraph, hi), hi
    return ConcentrationReport(False, lower, upper, lo, hi, offender, degree)
