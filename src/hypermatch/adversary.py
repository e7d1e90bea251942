"""Edge-deletion adversaries.

The parity adversary keeps exactly the edges meeting a fixed odd-sized
vertex set V1 an even number of times; since every surviving edge covers an
even number of V1 vertices and |V1| is odd, no perfect matching can survive.
The greedy budget adversary deletes as many edges as it can, in seeded
random order, subject to never pushing a touched (k-1)-subset's co-degree
below a threshold; it stress-tests the matching pipeline near the co-degree
bound. The scan decides a chunk of the order at a time: it keeps in bulk
the edges through a subset already at the threshold, deletes in bulk the
edges whose subsets occur in the chunk no more often than their room above
the threshold, and tests one by one only the rest.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Optional

import numpy as np

from .hypergraph import Hypergraph
from .rng import Rng, permutations

_SCAN_CHUNK = 1024  # fewest edges of the scan order in one chunk


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

    A subset's room is its co-degree minus the threshold; co-degrees only
    fall, so a subset with no room stays closed, and an edge through a
    closed subset is kept whenever its turn comes. The scan order is decided
    in chunks of max(_SCAN_CHUNK, C/8) edges for C subsets, so that a
    chunk's O(C) bincounts stay in proportion to it. In each chunk the edges
    through a closed subset are kept; a subset that the remaining edges meet
    no more often than its room is cold: at each of its turns it still has
    room, so an edge whose k subsets are all cold is deleted in bulk. Only
    the edges through a hot subset are tested one by one, in order, against
    rooms held in a dict; they alone move a hot subset's room. One bincount
    of the chunk's deletions then updates the rooms. The result equals the
    one-edge-at-a-time scan's and satisfies
    min co-degree >= min(input min co-degree, threshold). Order dependent by
    design; parallelize across seeds, not within a run.

    Subsets are named by their ranks while C(n, k-1) <= kE, with co-degrees
    counted from the edge array, so only the residual's co-degree index is
    built; sparser graphs name them by index position
    (``Hypergraph._subset_ids``).
    """
    threshold, seed = operator.index(threshold), operator.index(seed)
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    slots, counts = hypergraph._subset_ids()
    order = permutations([Rng(seed).key], len(slots))[0, 0]  # edge ids, in scan order
    columns = slots.T[:, order]  # row j: the subset of each edge, in scan order, minus its member j
    # room[x]: how many more edges through subset x the scan may delete. No
    # co-degree exceeds E, so a larger threshold leaves no room, as E does
    room = counts - min(threshold, len(slots))
    deleted = np.zeros(len(order), dtype=bool)  # by place in the scan order
    size = max(_SCAN_CHUNK, len(room) // 8)  # a chunk's two bincounts cost O(len(room))
    for start in range(0, len(order), size):
        block = columns[:, start:start + size]
        live, *rest = room.take(block) > 0  # an edge through a closed subset is kept
        for row in rest:
            live &= row
        block = np.compress(live, block, axis=1)
        # a subset met no more often than its room stays open in this chunk
        excess = np.bincount(block.reshape(-1), minlength=len(room)) - room
        hot, *rest = excess.take(block) > 0
        for row in rest:
            hot |= row
        taken = ~hot  # an edge whose subsets are all cold is deleted at its turn
        picks = np.flatnonzero(hot)
        if len(picks):
            # only these edges move a hot subset's room; a cold subset's,
            # moved here by them alone, stays above 0 at each of its turns
            subsets = block[:, picks]
            lists = subsets.tolist()
            left = dict(zip(chain(*lists), room.take(subsets).reshape(-1).tolist()))
            picked = []
            for i, edge in zip(picks.tolist(), zip(*lists)):
                for x in edge:
                    if left[x] <= 0:
                        break
                else:
                    for x in edge:
                        left[x] -= 1
                    picked.append(i)
            taken[picked] = True
        room -= np.bincount(np.compress(taken, block, axis=1).reshape(-1), minlength=len(room))
        deleted[start:start + size][live] = taken
    removed = np.empty_like(deleted)  # by edge id
    removed[order] = deleted
    result = Hypergraph._trusted(hypergraph.n, hypergraph.k, hypergraph.edge_array[~removed])
    return AdversaryOutcome(
        result=result,
        deleted=len(slots) - result.edge_count(),
        residual_min_codegree=result.codegree_extremes()[0],
        mode="greedy",
        params={"threshold": threshold, "seed": seed},
    )
