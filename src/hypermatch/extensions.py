"""Degree statistics of an auxiliary-graph vertex under a random first
permutation.

Fix a right-side vertex v and the identity alignment of parts 2..k-1. Row i
of the :class:`ExtensionMatrix` marks which first-part vertices u complete
slot i into an edge; under a random first permutation pi the degree of v is
sum_i member[i][pi(i)]. The distribution depends on the membership table
alone, so the lemma-level statistics can be validated at m = 1000 without
materializing a hypergraph.

Exact mode enumerates all m! permutations (m <= 7) with rational
arithmetic: the mean always equals total/m, and the variance never exceeds
mu + 2*mu^2/(m-1). Medians use the lower convention throughout (the
ceil(q/2)-th order statistic of q values).
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from .rng import Rng

_EXACT_LIMIT = 7

Number = Union[int, float, Fraction]


class ExtensionMatrix:
    """Square boolean membership table with row sums and their total."""

    __slots__ = ("member", "m", "row_sums", "total")

    def __init__(self, member):
        arr = np.asarray(member, dtype=bool)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("member table must be square")
        if arr.shape[0] == 0:
            raise ValueError("member table must be nonempty")
        self.member = arr
        self.m = arr.shape[0]
        self.row_sums = tuple(int(s) for s in arr.sum(axis=1))
        self.total = int(arr.sum())

    def mean_degree(self) -> Fraction:
        """Expected degree under a uniform permutation: total / m."""
        return Fraction(self.total, self.m)


def variance_bound(mu: Number, m: int) -> Number:
    """mu + 2*mu^2/(m-1); infinite at m = 1 where the bound is undefined."""
    if m <= 1:
        return math.inf
    return mu + 2 * mu * mu / (m - 1)


@dataclass(frozen=True)
class ExtensionStats:
    """Summary of the degree distribution.

    Exact mode carries rationals (mu is exactly total/m); empirical mode
    carries sample moments. containment reports whether the median lies in
    (1 +/- alpha) * total/m, when alpha was supplied.
    """

    mu: Number
    variance: Number
    variance_bound: Number
    median: Number
    mode: str
    samples: Optional[int] = None
    alpha: Optional[float] = None
    containment: Optional[bool] = None

    def to_jsonable(self) -> dict:
        return {
            "mu": float(self.mu),
            "variance": float(self.variance),
            "variance_bound": float(self.variance_bound),
            "median": float(self.median),
            "containment": self.containment,
            "mode": self.mode,
        }


def _lower_median_from_counts(counts: dict[int, int], total: int) -> int:
    """The ceil(total/2)-th smallest value of the tallied multiset."""
    target = (total + 1) // 2
    seen = 0
    for value in sorted(counts):
        seen += counts[value]
        if seen >= target:
            return value
    raise AssertionError("empty tally")


def _check_alpha(alpha: Optional[float]) -> None:
    if alpha is not None and not 0 <= alpha < math.inf:
        raise ValueError("alpha must be nonnegative and finite")


def _containment(median: Number, mu: Fraction, alpha: Optional[float]) -> Optional[bool]:
    if alpha is None:
        return None
    return (1 - alpha) * mu <= median <= (1 + alpha) * mu


def extension_stats_exact(matrix: ExtensionMatrix, alpha: Optional[float] = None) -> ExtensionStats:
    """Exact degree distribution over all m! permutations (m <= 7)."""
    _check_alpha(alpha)
    m = matrix.m
    if m > _EXACT_LIMIT:
        raise ValueError(f"exact mode enumerates m! permutations, need m <= {_EXACT_LIMIT}")
    rows = [frozenset(np.nonzero(matrix.member[i])[0].tolist()) for i in range(m)]
    tally: dict[int, int] = {}
    for perm in itertools.permutations(range(m)):
        degree = sum(1 for i in range(m) if perm[i] in rows[i])
        tally[degree] = tally.get(degree, 0) + 1
    count = math.factorial(m)
    mean = Fraction(sum(d * c for d, c in tally.items()), count)
    second = Fraction(sum(d * d * c for d, c in tally.items()), count)
    variance = second - mean * mean
    median = _lower_median_from_counts(tally, count)
    return ExtensionStats(
        mu=mean,
        variance=variance,
        variance_bound=variance_bound(mean, m),
        median=median,
        mode="exact",
        alpha=alpha,
        containment=_containment(median, mean, alpha),
    )


def extension_stats_empirical(matrix: ExtensionMatrix, samples: int, seed: int,
                              alpha: Optional[float] = None) -> ExtensionStats:
    """Sample moments of the degree over ``samples`` random permutations.

    Permutations are drawn as the argsort of fresh 64-bit keys (uniform,
    since ties have negligible probability, and deterministic in the seed).
    The containment test compares the sample median against the exact mean
    total/m, not the sample mean.
    """
    samples = operator.index(samples)
    if samples < 1:
        raise ValueError("need at least one sample")
    _check_alpha(alpha)
    m = matrix.m
    rng = Rng(seed)
    member = matrix.member
    slots = np.arange(m)
    degrees = np.empty(samples, dtype=np.int64)
    for s in range(samples):
        perm = np.argsort(rng.u64_block(m), kind="stable")
        degrees[s] = int(member[slots, perm].sum())
    mean = float(degrees.mean())
    variance = float(degrees.var())
    median = _lower_median_from_counts(Counter(degrees.tolist()), samples)
    return ExtensionStats(
        mu=mean,
        variance=variance,
        variance_bound=variance_bound(float(matrix.mean_degree()), m),
        median=median,
        mode="empirical",
        samples=samples,
        alpha=alpha,
        containment=_containment(median, matrix.mean_degree(), alpha),
    )
