"""Balanced bipartite graphs, maximum matching, and Hall certificates.

Both sides are indexed 0..m-1; adjacency is stored per left vertex as an
ascending neighbor tuple. The matcher is Hopcroft-Karp (layered augmenting
paths, O(E * sqrt(V))) and is deterministic given the stored adjacency
order. When no perfect matching exists, a Hall certificate (a set X on one
side with |N(X)| < |X|) is extracted from alternating-path reachability.

The pi-search holds rows as bits (bit v set: adjacent to right vertex v).
``_is_perfect`` decides on int bitmasks whether a perfect matching exists
without building one: a greedy first-free matching, then one bitset
breadth-first augmenting search per unmatched row, stopping at the first row
that has none. ``BipartiteGraph._from_rows`` builds the graph from the same
rows as little-endian uint64 words (see pipeline.find_matching_permutations).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np


class BipartiteGraph:
    """Immutable balanced bipartite graph with per-row neighbor lists."""

    __slots__ = ("m", "adjacency")

    def __init__(self, m: int, adjacency: Iterable[Iterable[int]]):
        m = operator.index(m)
        if m < 0:
            raise ValueError("m must be nonnegative")
        rows = []
        for row in adjacency:
            nbrs = tuple(sorted(set(map(operator.index, row))))
            if nbrs and (nbrs[0] < 0 or nbrs[-1] >= m):
                raise ValueError(f"neighbor outside [0, {m}) in row {row!r}")
            rows.append(nbrs)
        if len(rows) != m:
            raise ValueError(f"expected {m} adjacency rows, got {len(rows)}")
        self.m = m
        self.adjacency = tuple(rows)

    @classmethod
    def _trusted(cls, m: int, rows: Sequence[tuple[int, ...]]) -> "BipartiteGraph":
        """Internal fast path: m rows of ascending, distinct ids in [0, m)."""
        obj = object.__new__(cls)
        obj.m, obj.adjacency = m, tuple(rows)
        return obj

    @classmethod
    def _from_rows(cls, rows: np.ndarray) -> "BipartiteGraph":
        """Internal: row i adjacent to v exactly when bit v of rows[i], C-contiguous
        little-endian uint64 words, is set, every bit below len(rows)."""
        m = len(rows)
        bits = np.unpackbits(rows.view(np.uint8), axis=1, count=m, bitorder="little")
        row, right = np.nonzero(bits)  # row-major, so each row's columns ascend
        right = right.tolist()  # Python ints, as the checked constructor stores
        ends = np.bincount(row, minlength=m).cumsum().tolist()
        return cls._trusted(m, [tuple(right[a:b]) for a, b in zip([0] + ends, ends)])

    def edge_count(self) -> int:
        return sum(len(row) for row in self.adjacency)

    def left_degrees(self) -> tuple[int, ...]:
        return tuple(len(row) for row in self.adjacency)

    def right_degrees(self) -> tuple[int, ...]:
        degs = [0] * self.m
        for row in self.adjacency:
            for v in row:
                degs[v] += 1
        return tuple(degs)

    def reverse(self) -> "BipartiteGraph":
        """The same graph viewed from the right side."""
        rows: list[list[int]] = [[] for _ in range(self.m)]
        for u, row in enumerate(self.adjacency):
            for v in row:
                rows[v].append(u)
        return BipartiteGraph._trusted(self.m, [tuple(row) for row in rows])

    def min_degree(self) -> int:
        """Minimum degree over both sides (0 for the empty graph on m = 0)."""
        if self.m == 0:
            return 0
        return min(min(self.left_degrees()), min(self.right_degrees()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, BipartiteGraph):
            return NotImplemented
        return (self.m, self.adjacency) == (other.m, other.adjacency)

    def __hash__(self) -> int:
        return hash((self.m, self.adjacency))

    def __repr__(self) -> str:
        return f"BipartiteGraph(m={self.m}, edges={self.edge_count()})"


def _is_perfect(masks: Sequence[int]) -> bool:
    """Whether the graph with row bitmasks ``masks`` (every bit below
    len(masks)) has a perfect matching.

    When an unmatched row has no augmenting path, the rows its alternating
    paths reach outnumber their neighbors by one, a Hall violation, so the
    first such row decides False. Masks are Python ints: no word size is
    assumed.
    """
    m = len(masks)
    free = (1 << m) - 1  # right vertices not yet matched
    match_l, match_r = [-1] * m, [-1] * m
    unmatched = []
    for u, mask in enumerate(masks):
        avail = mask & free
        if avail:
            v = (avail & -avail).bit_length() - 1
            match_l[u], match_r[v] = v, u
            free ^= 1 << v
        elif mask:
            unmatched.append(u)
        else:
            return False
    for u in unmatched:
        # breadth-first over alternating paths from u; parent[v] is the row that reached v
        parent, seen, frontier, v = {}, 0, [u], -1
        while frontier and v == -1:
            layer = []
            for r in frontier:
                new = masks[r] & ~seen
                hit = new & free
                if hit:
                    v = (hit & -hit).bit_length() - 1
                    break
                seen |= new
                while new:
                    low = new & -new
                    w = low.bit_length() - 1
                    parent[w] = r
                    layer.append(match_r[w])
                    new ^= low
            frontier = layer
        if v == -1:
            return False
        free ^= 1 << v
        while r != -1:  # flip the path from r back to u, its one unmatched row
            match_l[r], match_r[v], v = v, r, match_l[r]
            r = parent.get(v, -1)
    return True


@dataclass(frozen=True)
class BipartiteMatching:
    """Partial injective row -> right-vertex map; -1 marks unmatched rows."""

    row_to_right: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.row_to_right) - self.row_to_right.count(-1)

    def is_perfect(self) -> bool:
        return self.row_to_right.count(-1) == 0


def max_matching(graph: BipartiteGraph) -> BipartiteMatching:
    """Maximum-cardinality matching via Hopcroft-Karp.

    Rows are scanned in ascending order and neighbors in stored order, so
    the result is deterministic.
    """
    m = graph.m
    adj = graph.adjacency
    INF = m + 1
    match_l = [-1] * m
    match_r = [-1] * m
    dist = [INF] * m

    def bfs() -> bool:
        queue = [u for u in range(m) if match_l[u] == -1]
        for u in range(m):
            dist[u] = 0 if match_l[u] == -1 else INF
        found = INF
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            if dist[u] >= found:
                continue
            for v in adj[u]:
                w = match_r[v]
                if w == -1:
                    found = dist[u] + 1
                elif dist[w] == INF:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return found != INF

    def augment(u: int) -> None:
        # layered DFS with an explicit stack (no recursion limit) of
        # (vertex, neighbor taken, its unscanned neighbors) below u
        path = []
        nbrs, target = iter(adj[u]), dist[u] + 1
        while True:
            for v in nbrs:
                w = match_r[v]
                if w == -1:
                    match_l[u], match_r[v] = v, u
                    for x, y, _ in path:
                        match_l[x], match_r[y] = y, x
                    return
                if dist[w] == target:
                    break
            else:  # dead end: u leaves the layers, its parent resumes
                dist[u] = INF
                if not path:
                    return
                u, _, nbrs = path.pop()
                target -= 1
                continue
            path.append((u, v, nbrs))
            u, nbrs, target = w, iter(adj[w]), target + 1

    while bfs():
        for u in range(m):
            if match_l[u] == -1:
                augment(u)
    return BipartiteMatching(tuple(match_l))


@dataclass(frozen=True)
class HallCertificate:
    """Witness that no perfect matching exists: |N(members)| < |members|."""

    side: str  # "left" | "right"
    members: tuple[int, ...]
    neighborhood: tuple[int, ...]

    @property
    def deficiency(self) -> int:
        return len(self.members) - len(self.neighborhood)


def _reachable_certificate(adj: Sequence[Sequence[int]], match_l: Sequence[int],
                           match_r: Sequence[int]) -> tuple[set[int], set[int]]:
    """Alternating-path reachability from unmatched left vertices.

    Returns (X, N(X)). Every right vertex seen must be matched, and its
    partner joins X; an unmatched one completes an augmenting path, so the
    matching is not maximum and ValueError is raised.
    """
    members = {u for u in range(len(match_l)) if match_l[u] == -1}
    frontier = list(members)
    neighborhood: set[int] = set()
    while frontier:
        u = frontier.pop()
        for v in adj[u]:
            if v in neighborhood:
                continue
            neighborhood.add(v)
            w = match_r[v]
            if w == -1:
                raise ValueError("matching is not maximum: an augmenting path exists")
            if w not in members:
                members.add(w)
                frontier.append(w)
    return members, neighborhood


def hall_certificate(graph: BipartiteGraph, matching: Optional[BipartiteMatching] = None) -> HallCertificate:
    """Extract a Hall violator from a graph without a perfect matching.

    Both sides are searched; the smaller certificate wins (left on ties).
    Raises ValueError when the graph has a perfect matching, or when a
    supplied matching is not a maximum matching of the graph.
    """
    if matching is None:
        matching = max_matching(graph)
    m = graph.m
    match_l = list(matching.row_to_right)
    if len(match_l) != m:
        raise ValueError(f"not a matching of the graph: {len(match_l)} rows, expected {m}")
    match_r = [-1] * m
    for u, v in enumerate(match_l):
        if v != -1:
            if v not in graph.adjacency[u] or match_r[v] != -1:
                raise ValueError(f"not a matching of the graph: row {u} -> {v}")
            match_r[v] = u
    if matching.is_perfect():
        raise ValueError("graph has a perfect matching, no certificate exists")
    left_x, left_n = _reachable_certificate(graph.adjacency, match_l, match_r)
    right_adj = graph.reverse().adjacency
    right_x, right_n = _reachable_certificate(right_adj, match_r, match_l)
    if len(right_x) < len(left_x):
        return HallCertificate("right", tuple(sorted(right_x)), tuple(sorted(right_n)))
    return HallCertificate("left", tuple(sorted(left_x)), tuple(sorted(left_n)))
