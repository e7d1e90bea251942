"""Pseudorandomness checker for balanced bipartite graphs.

A graph on parts of size m is (eps, p)-pseudorandom when

1. every vertex (either side) has degree >= (1/2 + eps) * m * p,
2. e(X, Y) <= m * p * |X| / 2 whenever |X| - 1 = |Y| <= m / 10,
3. e(X, Y) <= (1/2 + eps/2) * m * p * |X| whenever m/10 <= |X| - 1 = |Y| <= m/2.

Properties 2 and 3 are checked in both orientations (X on the left with Y on
the right, and mirrored): a Hall violator can sit on either side, and the
matching guarantee needs the caps for both. Size-class boundaries are exact
rational comparisons with both endpoints inclusive (x - 1 <= m/10 is
evaluated as 10 * (x - 1) <= m, and so on).

For a fixed X and size x - 1, the adversarial Y is the x - 1 opposite
vertices of largest degree into X; e(X, Y) is monotone in those per-vertex
degrees, so checking that single Y is equivalent to checking all Y of the
size. Exact mode enumerates all 2^m subsets per orientation (m <= 16);
sampled mode draws random X per size class and is one-sided: it can certify
failure but never success.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bipartite import BipartiteGraph
from .rng import Rng

_EXACT_LIMIT = 16


@functools.cache
def _subset_matrix(m: int) -> np.ndarray:
    """Subset membership matrix: row s holds the bits of s."""
    codes = np.arange(1 << m, dtype=np.uint32)
    return ((codes[:, None] >> np.arange(m, dtype=np.uint32)) & 1).astype(np.int32)


@dataclass(frozen=True)
class PseudorandomVerdict:
    """Checker outcome.

    failed_property is 1, 2, or 3 (None when pseudorandom). For property 1
    the witness is (vertex, degree); for properties 2 and 3 it is
    (X, Y, e(X, Y)) with X on ``witness_side``. A sampled verdict with
    pseudorandom=True only means no violation was found.
    """

    pseudorandom: bool
    failed_property: Optional[int]
    witness: Optional[tuple]
    witness_side: Optional[str]
    mode: str


def _ok(mode: str) -> PseudorandomVerdict:
    return PseudorandomVerdict(True, None, None, None, mode)


def _check_degrees(graph: BipartiteGraph, eps: float, p: float, mode: str) -> Optional[PseudorandomVerdict]:
    threshold = (0.5 + eps) * graph.m * p
    for side, degrees in (("left", graph.left_degrees()), ("right", graph.right_degrees())):
        for vertex, degree in enumerate(degrees):
            if degree < threshold:
                return PseudorandomVerdict(False, 1, (vertex, degree), side, mode)
    return None


def _size_classes(m: int, p: float, eps: float, sizes: np.ndarray):
    """(property, membership of |X| in its size class, cap on e(X, Y)) for
    properties 2 and 3, elementwise over the sizes |X| >= 1."""
    spare = sizes - 1
    return ((2, 10 * spare <= m, m * p * sizes / 2.0),
            (3, (10 * spare >= m) & (2 * spare <= m), (0.5 + eps / 2.0) * m * p * sizes))


def _top_sum_witness(rows: np.ndarray, members: list[int], y: int) -> tuple[tuple[int, ...], int]:
    """Adversarial Y of size y for the given X and the resulting edge count."""
    degrees = rows[members].sum(axis=0)
    order = np.argsort(-degrees, kind="stable")[:y]
    chosen = tuple(sorted(int(v) for v in order))
    return chosen, int(degrees[order].sum())


def _exact_orientation(rows: np.ndarray, side: str, eps: float, p: float,
                       mode: str) -> Optional[PseudorandomVerdict]:
    m = rows.shape[0]
    subsets = _subset_matrix(m)
    degrees = subsets @ rows  # degree of each opposite vertex into each subset
    sizes = subsets.sum(axis=1)
    ordered = np.sort(degrees, axis=1)[:, ::-1]
    prefix = np.cumsum(ordered, axis=1)
    # adversarial edge count per subset: the top |X| - 1 opposite degrees
    tops = np.zeros(len(sizes), dtype=np.int64)
    full = sizes >= 2
    tops[full] = prefix[np.nonzero(full)[0], sizes[full] - 2]
    for prop, mask, cap in _size_classes(m, p, eps, sizes):
        violations = (sizes >= 1) & mask & (tops > cap)
        if violations.any():
            code = int(np.nonzero(violations)[0][0])
            members = [i for i in range(m) if (code >> i) & 1]
            chosen, recount = _top_sum_witness(rows, members, len(members) - 1)
            return PseudorandomVerdict(
                False, prop, (tuple(members), chosen, recount), side, mode)
    return None


def _sampled_orientation(rows: np.ndarray, side: str, eps: float, p: float,
                         rng: Rng, trials: int, mode: str) -> Optional[PseudorandomVerdict]:
    m = rows.shape[0]
    all_sizes = np.arange(2, m + 1)  # x = 1 gives e(X, {}) = 0, never a violation
    for prop, mask, caps in _size_classes(m, p, eps, all_sizes):
        sizes = all_sizes[mask].tolist()
        if not sizes:
            continue
        for _ in range(trials):
            x = sizes[rng.below(len(sizes))]
            members = sorted(rng.choose(m, x))
            chosen, edges = _top_sum_witness(rows, members, x - 1)
            if edges > caps[x - 2]:
                return PseudorandomVerdict(
                    False, prop, (tuple(members), chosen, edges), side, mode)
    return None


def is_pseudorandom(graph: BipartiteGraph, eps: float, p: float, mode: str = "exact",
                    *, seed: Optional[int] = None, trials: Optional[int] = None) -> PseudorandomVerdict:
    """Decide (eps, p)-pseudorandomness.

    Property 1 is always checked exactly. mode="exact" (m <= 16, cost about
    2^m * m per orientation) enumerates every subset; mode="sampled"
    (any m, requires seed and trials) draws ``trials`` random X per size
    class and orientation. Checking order is fixed: property 1 left then
    right, then per orientation (left before right) property 2 then 3 with
    subsets in ascending code order; the first violation is reported.
    """
    if not math.isfinite(eps) or not 0.0 <= p <= 1.0:
        raise ValueError("eps must be finite and p must lie in [0, 1]")
    if mode not in ("exact", "sampled"):
        raise ValueError("mode must be 'exact' or 'sampled'")
    if mode == "exact" and graph.m > _EXACT_LIMIT:
        raise ValueError(f"exact mode supports m <= {_EXACT_LIMIT}, got m = {graph.m}")
    if mode == "sampled" and (seed is None or trials is None or trials < 1):
        raise ValueError("sampled mode needs a seed and trials >= 1")

    bad = _check_degrees(graph, eps, p, mode)
    if bad is not None:
        return bad
    if graph.m == 0:
        return _ok(mode)

    left_rows = np.zeros((graph.m, graph.m), dtype=np.int32)
    for u, row in enumerate(graph.adjacency):
        left_rows[u, list(row)] = 1
    orientations = (("left", left_rows), ("right", left_rows.T.copy()))

    if mode == "exact":
        for side, rows in orientations:
            bad = _exact_orientation(rows, side, eps, p, mode)
            if bad is not None:
                return bad
        return _ok(mode)

    rng = Rng(seed)
    for side, rows in orientations:
        bad = _sampled_orientation(rows, side, eps, p, rng, trials, mode)
        if bad is not None:
            return bad
    return _ok(mode)
