"""Edge-deletion adversaries.

The parity adversary keeps exactly the edges meeting a fixed odd-sized
vertex set V1 an even number of times; since every surviving edge covers an
even number of V1 vertices and |V1| is odd, no perfect matching can survive.
The greedy budget adversary deletes as many edges as it can, in seeded
random order, subject to never pushing a touched (k-1)-subset's co-degree
below a threshold; it stress-tests the matching pipeline near the co-degree
bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .hypergraph import Hypergraph, _as_vertex
from .rng import Rng, permutations


@dataclass(frozen=True)
class AdversaryOutcome:
    """Residual hypergraph plus bookkeeping about the deletion run."""

    result: Hypergraph
    deleted: int
    residual_min_codegree: int
    mode: str
    params: dict

    def to_jsonable(self) -> dict:
        return {
            "mode": self.mode,
            "params": self.params,
            "deleted": self.deleted,
            "edges_after": self.result.edge_count(),
            "residual_min_codegree": self.residual_min_codegree,
        }


def default_odd_v1(n: int) -> tuple[int, ...]:
    """First ceil(n/2) vertices, extended by one when that count is even."""
    size = (n + 1) // 2
    if size % 2 == 0:
        size += 1
    return tuple(range(size))


def parity_adversary(hypergraph: Hypergraph, v1: Optional[Iterable[int]] = None) -> AdversaryOutcome:
    """Delete every edge meeting V1 an odd number of times.

    V1 must have odd size (default: :func:`default_odd_v1`); the residual
    then has no perfect matching regardless of the input.
    """
    if v1 is None:
        chosen = default_odd_v1(hypergraph.n)
    else:
        chosen = tuple(sorted(set(_as_vertex(v) for v in v1)))
        if any(v < 0 or v >= hypergraph.n for v in chosen):
            raise ValueError("v1 has a vertex outside [0, n)")
    if len(chosen) % 2 == 0:
        raise ValueError("v1 must have odd size")
    edges = hypergraph.edge_array
    kept = edges[np.isin(edges, chosen).sum(axis=1) % 2 == 0]
    result = Hypergraph._trusted(hypergraph.n, hypergraph.k, kept)
    return AdversaryOutcome(
        result=result,
        deleted=len(edges) - len(kept),
        residual_min_codegree=result.codegree_extremes()[0],
        mode="parity",
        params={"v1": chosen},
    )


def greedy_budget_adversary(hypergraph: Hypergraph, threshold: int, seed: int) -> AdversaryOutcome:
    """Scan edges in seeded random order, deleting an edge iff every
    (k-1)-subset of it would keep co-degree >= threshold afterwards.

    Only the k subsets of the candidate edge change, so each candidate costs
    k index updates. The result satisfies
    min co-degree >= min(input min co-degree, threshold). Order dependent by
    design; parallelize across seeds, not within a run.
    """
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    # the scan is sequential: edges in scan order as index positions of their
    # k subsets, co-degrees as plain ints in a list
    slots = hypergraph._edge_slots()
    order = permutations([Rng(seed).key], len(slots))[0, 0]
    counts = hypergraph._degrees().tolist()
    removed = bytearray(len(slots))  # by scan position
    for e, subsets in enumerate(slots[order].tolist()):
        if min(map(counts.__getitem__, subsets)) > threshold:
            for x in subsets:
                counts[x] -= 1
            removed[e] = 1
    deleted = np.zeros(len(slots), dtype=bool)
    deleted[order] = np.frombuffer(removed, dtype=bool)
    result = Hypergraph._trusted(hypergraph.n, hypergraph.k, hypergraph.edge_array[~deleted])
    return AdversaryOutcome(
        result=result,
        deleted=len(slots) - result.edge_count(),
        residual_min_codegree=result.codegree_extremes()[0],
        mode="greedy",
        params={"threshold": threshold, "seed": seed},
    )
