"""Seeded sampling and the statistical checks built on it.

The binomial hypergraph sampler enumerates all C(n, k) subsets and spends
one uniform draw on each, so the output is a pure function of
(n, k, p, seed) and edge-count moments match Bin(C(n, k), p) exactly. It
draws the words a chunk of ranks at a time and keeps only the hits, so it
takes O(C(n, k)) words of time but O(E + C(n, k-1)) memory. From
cores.SPLIT words on, the first half of the chunks is drawn on the helper
thread while it is free (cores.halves); the ranks are the same either way.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

import numpy as np

from . import cores
from .hypergraph import BalancedPartition, Edge, Hypergraph, _subset_count, lex_unrank
from .rng import Rng, permutations, substreams, u64_blocks

_CHUNK = 1 << 16  # ranks whose words the sampler draws and compares at once
_RETRY_CHUNK = 32  # partition retries drawn and bounded on the probe keys at once


def sample_hypergraph(n: int, k: int, p: float, seed: int) -> Hypergraph:
    """Random k-uniform hypergraph: each k-subset is an edge independently
    with probability p, deterministic in the seed.

    Draw t of the stream decides the subset of lexicographic rank t. The
    co-degree index is built on first read, so a caller that reads only the
    edge array (the parity adversary) never builds it.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if k < 2 or n < k:
        raise ValueError("need n >= k >= 2")
    # C(n, k) is refused before any word is drawn
    return Hypergraph._trusted(n, k, lex_unrank(n, k, _edge_ranks(_subset_count(n, k), p, seed)))


def _edge_ranks(total: int, p: float, seed: int) -> np.ndarray:
    """Ascending ranks t < total whose word w, draw t of the seed's stream,
    has (w >> 11) * 2**-53 < p; drawn and compared a chunk of ranks at a
    time, the two halves of the chunks on two cores (cores.halves)."""
    if p == 1.0:
        return np.arange(total)
    # u = w >> 11 is below 2**53, so u * 2**-53 is exact, and so is p * 2**53.
    # For integer u, u * 2**-53 < p exactly when u < ceil(p * 2**53), that is
    # when w < ceil(p * 2**53) << 11, a threshold that fits a word for p < 1
    threshold, key = np.uint64(math.ceil(p * 2**53) << 11), Rng(seed).key
    starts = range(0, total, _CHUNK)

    def hits(lo, hi):  # the edge ranks of chunks lo..hi-1
        return [np.flatnonzero(u64_blocks((key,), min(_CHUNK, total - start), start)[0] < threshold) + start
                for start in starts[lo:hi]]

    return np.concatenate([ranks for run in cores.halves(hits, len(starts), total) for ranks in run])


def sample_balanced_partition(n: int, k: int, seed: int) -> BalancedPartition:
    """Uniform equipartition of [0, n) into k parts: one uniform permutation
    cut into k consecutive blocks of size n/k."""
    n, k = operator.index(n), operator.index(k)
    if k <= 0 or n % k:
        raise ValueError("k must be positive and divide n")
    if n <= 0:
        raise ValueError("n must be positive")
    return BalancedPartition._trusted(_cut_labels([Rng(seed).key], n, k)[0], k)


def _cut_labels(keys, n: int, k: int) -> np.ndarray:
    """(len(keys), n) part labels: row r cuts ``Rng(keys[r]).permutation(n)``
    into k consecutive blocks of n/k, all drawn by one rng.permutations call."""
    perms = permutations(keys, n)[:, 0]
    labels = np.empty_like(perms)
    labels[np.arange(len(perms))[:, None], perms] = np.arange(n) // (n // k)
    return labels


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


def _packing(degrees: np.ndarray, k: int) -> tuple[int, int]:
    """(width, rows): the field width w = bit_length(max co-degree), at
    least 1, and the label rows whose k-1 fields fill one word, at least 1."""
    width = max(1, int(degrees.max(initial=0)).bit_length())
    return width, max(1, 64 // width // (k - 1))


def _part_counts(completions: np.ndarray, offsets: np.ndarray, labels: np.ndarray,
                 k: int) -> Iterator[np.ndarray]:
    """(g, k, keys) arrays in turn, one per group of label rows: counts[b, i, s]
    is the number of completions of key s, completions[offsets[s]:offsets[s + 1]],
    that label row b puts in part i.

    Each (row, part) pair of parts 0..k-2 owns a w-bit field (_packing),
    64 // w to a uint64 word; the last part's count is the co-degree minus
    the others'. No part count exceeds its key's co-degree, so fields never
    carry, and one gather plus one segmented sum counts a word. A group is
    as many rows as fill a word, or one row whose fields spill over several.
    """
    degrees = np.diff(offsets)
    width, rows = _packing(degrees, k)
    per_word = 64 // width
    shifts = np.arange(per_word, dtype=np.uint64)[:, None] * np.uint64(width)
    for start in range(0, len(labels), rows):
        group = labels[start:start + rows]
        fields = np.arange(len(group))[:, None] * (k - 1) + group
        word_of, slot = np.divmod(fields, per_word)
        bits = np.where(group < k - 1, np.uint64(1) << (slot * width).astype(np.uint64), np.uint64(0))
        words = []
        for word in range(-(-len(group) * (k - 1) // per_word)):
            table = np.where(word_of == word, bits, 0).sum(axis=0, dtype=np.uint64)
            sums = np.add.reduceat(table[completions], offsets[:-1])
            words.append((sums >> shifts) & np.uint64((1 << width) - 1))
        counts = np.empty((len(group), k, len(degrees)), dtype=np.int64)
        counts[:, :-1] = np.concatenate(words)[:len(group) * (k - 1)].reshape(len(group), k - 1, -1)
        counts[:, -1] = degrees - counts[:, :-1].sum(axis=1)
        if ((counts[:, -1] < 0) | (counts[:, -1] > degrees)).any():
            raise AssertionError("a derived last-part count lies outside [0, co-degree]")
        yield counts


def _deviations(degrees: np.ndarray, counts: np.ndarray, k: int) -> np.ndarray:
    return np.abs(counts * k / degrees - 1.0)


def _worst_deviations(completions: np.ndarray, offsets: np.ndarray, labels: np.ndarray,
                      k: int) -> list[float]:
    """Each label row's worst deviation over the given keys, 0.0 without
    keys; taken one part at a time, so that the float temporaries hold one
    part's counts of a group, not all k."""
    degrees = np.diff(offsets)
    return [worst for counts in _part_counts(completions, offsets, labels, k)
            for worst in np.max([_deviations(degrees, counts[:, i], k).max(axis=1, initial=0.0)
                                 for i in range(k)], axis=0).tolist()]


def _label_row(hypergraph: Hypergraph, partition: BalancedPartition) -> np.ndarray:
    """The partition's assignment as a one-row label block."""
    if partition.n != hypergraph.n or partition.k != hypergraph.k:
        raise ValueError("partition does not match the hypergraph")
    return np.array([partition.assignment])


def partition_worst_deviation(hypergraph: Hypergraph, partition: BalancedPartition) -> float:
    """Cheap path of verify_partition: the worst relative deviation only,
    0.0 when no subset has positive co-degree."""
    [worst] = _worst_deviations(hypergraph._completions, hypergraph._offsets,
                                _label_row(hypergraph, partition), hypergraph.k)
    return worst


def _probe(completions: np.ndarray, offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(completions, offsets) of the keys whose co-degree is at most the
    degree at which the lowest-degree keys, ties included, first hold 1/8
    of all completions; their ranges are gathered by position."""
    degrees = np.diff(offsets)
    if not len(degrees):
        return completions, offsets
    ordered = np.sort(degrees)
    held = np.cumsum(ordered)
    keep = np.flatnonzero(degrees <= ordered[np.searchsorted(held, -(-held[-1] // 8))])
    kept = np.r_[0, np.cumsum(degrees[keep])]
    # kept position j of key keep[s] is full position j + offsets[keep[s]] - kept[s]
    return completions[np.repeat(offsets[keep] - kept[:-1], degrees[keep]) + np.arange(kept[-1])], kept


def _partition_labels(n: int, k: int, seed: int, count: int) -> Iterator[np.ndarray]:
    """Part labels of partitions 0..count-1 as (B, n) blocks of _RETRY_CHUNK
    rows: row t of the concatenated blocks is the ``assignment`` of
    sample_balanced_partition(n, k, substream(seed, t)). Each chunk's keys
    are derived as it is drawn, so memory does not grow with count."""
    for start in range(0, count, _RETRY_CHUNK):
        yield _cut_labels(substreams(seed, np.arange(start, min(start + _RETRY_CHUNK, count),
                                                     dtype=np.uint64)), n, k)


def choose_partition(hypergraph: Hypergraph, blocks: Iterable[np.ndarray],
                     alpha: float) -> tuple[BalancedPartition, float, int]:
    """(partition, deviation, attempts) of the retry rule over candidates
    given as (B, n) part-label blocks, row t of the concatenated blocks being
    candidate t: the candidate of least key (deviation > alpha, deviation if
    above alpha else 0, attempt) under partition_worst_deviation. That is
    the first candidate within alpha, after ``attempts`` candidates, else
    the first of least deviation, after all.

    An exact branch and bound, a block at a time, whose worst deviations
    over the probe keys (_probe) are scored in packed words. That is a max
    over a subset of the keys, so a lower bound on the deviation, and its
    key of the same form a lower bound on the candidate's key. Candidates
    are scored on every key in ascending bound order while the bound is
    below the best key, as many in one pass as one packed word holds. A
    passing key is below every failing one and every later attempt's, so
    once a block's best passes no further candidate can win, and no block
    is drawn. Only the winner is built as a BalancedPartition.
    """
    n, k = hypergraph.n, hypergraph.k
    full = (hypergraph._completions, hypergraph._offsets)
    probe = _probe(*full)
    per_pass = _packing(hypergraph._degrees(), k)[1]

    def key(deviation, attempt):
        return (deviation > alpha, deviation if deviation > alpha else 0.0, attempt)

    best, deviation, winner, taken = key(math.inf, 0), math.inf, None, 0
    for labels in blocks:
        if labels.shape[1:] != (n,):
            raise ValueError("partition does not match the hypergraph")
        bounds = sorted(key(b, taken + i) for i, b in enumerate(_worst_deviations(*probe, labels, k)))
        while bounds and bounds[0] < best:
            rows = [bound[2] - taken for bound in bounds[:per_pass] if bound < best]
            del bounds[:len(rows)]
            for row, scored in zip(rows, _worst_deviations(*full, labels[rows], k)):
                if (found := key(scored, taken + row)) < best:
                    best, deviation, winner = found, scored, labels[row]
        taken += len(labels)
        if not best[0]:
            break
    if winner is None:
        raise ValueError("need at least one candidate partition")
    attempts = best[2] + 1 if not best[0] else taken
    return BalancedPartition._trusted(winner, k), deviation, attempts


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
    [counts] = next(_part_counts(hypergraph._completions, hypergraph._offsets,
                                 _label_row(hypergraph, partition), hypergraph.k))
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
