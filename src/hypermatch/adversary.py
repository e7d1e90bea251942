"""Edge-deletion adversaries.

The parity adversary keeps exactly the edges meeting a fixed odd-sized
vertex set V1 an even number of times; since every surviving edge covers an
even number of V1 vertices and |V1| is odd, no perfect matching can survive.
The greedy budget adversary deletes as many edges as it can, in seeded
random order, subject to never pushing a touched (k-1)-subset's co-degree
below a threshold; it stress-tests the matching pipeline near the co-degree
bound. A subset that reaches the threshold stays there, so the edges through
it are kept whatever comes later: the scan drops them in bulk between
chunks of the order and tests one by one only the edges whose subsets were
all open at the start of their chunk.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .hypergraph import Hypergraph
from .rng import Rng, permutations

_SCAN_CHUNK = 256  # fewest edges the greedy scan visits between two drops of closed edges


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
        members = set()
        for v in map(operator.index, v1):  # checked as read, so a long v1 fails in O(n)
            if not 0 <= v < hypergraph.n:
                raise ValueError("v1 has a vertex outside [0, n)")
            members.add(v)
        chosen = tuple(sorted(members))
    if len(chosen) % 2 == 0:
        raise ValueError("v1 must have odd size")
    edges = hypergraph.edge_array
    member = np.zeros(hypergraph.n, dtype=np.uint8)
    member[list(chosen)] = 1
    columns = edges.T
    odd = member[columns[0]]  # parity of each edge's V1 count, one column at a time
    for column in columns[1:]:
        odd ^= member[column]
    kept = np.compress(odd == 0, edges, axis=0)
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

    Co-degrees only fall, so a subset at or below the threshold stays
    closed, and an edge through a closed subset is kept whenever its turn
    comes. The scan runs in chunks of a quarter of the pending edges (at
    least _SCAN_CHUNK); before each chunk one gather drops the pending edges
    that meet a closed subset, which changes no decision. Each edge left
    costs one set-disjointness test against the closed subsets, and each
    deletion k index updates. The result satisfies
    min co-degree >= min(input min co-degree, threshold). Order dependent by
    design; parallelize across seeds, not within a run.
    """
    threshold = operator.index(threshold)
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    # the scan is sequential: edges in scan order as index positions of their
    # k subsets, co-degrees as plain ints in a list, closed subsets in a set
    slots = hypergraph._edge_slots()
    pending = permutations([Rng(seed).key], len(slots))[0, 0]  # edge ids, in scan order
    rows = slots[pending]
    counts = hypergraph._degrees().tolist()
    closed = {x for x, count in enumerate(counts) if count <= threshold}
    is_open = np.ones(len(counts), dtype=bool)
    removed = bytearray(len(slots))  # by edge id
    while len(pending):
        is_open[np.fromiter(closed, dtype=np.intp, count=len(closed))] = False
        still_open = is_open[rows[:, 0]]
        for column in rows.T[1:]:
            still_open &= is_open[column]
        pending, rows = pending[still_open], np.compress(still_open, rows, axis=0)
        size = max(len(pending) // 4, _SCAN_CHUNK)
        for e, subsets in zip(pending[:size].tolist(), zip(*rows[:size].T.tolist())):
            if closed.isdisjoint(subsets):
                for x in subsets:
                    counts[x] -= 1
                    if counts[x] == threshold:
                        closed.add(x)
                removed[e] = 1
        pending, rows = pending[size:], rows[size:]
    deleted = np.frombuffer(removed, dtype=bool)
    result = Hypergraph._trusted(hypergraph.n, hypergraph.k, hypergraph.edge_array[~deleted])
    return AdversaryOutcome(
        result=result,
        deleted=len(slots) - result.edge_count(),
        residual_min_codegree=result.codegree_extremes()[0],
        mode="greedy",
        params={"threshold": threshold, "seed": seed},
    )
