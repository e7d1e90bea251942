"""k-uniform hypergraphs stored as an edge array with a CSR co-degree index.

Vertices are 0..n-1; ``edge_array`` holds the edges as (E, k) int64 rows,
ascending and distinct, in lexicographic order (``edges``: the same as
tuples). Both ``edges`` and the index are built on first read. The index
covers each (k-1)-subset X with a completion: ``_keys`` are their
lexicographic ranks in C([n], k-1), ascending, and X = ``_keys[s]`` owns the
ascending completions ``_completions[_offsets[s]:_offsets[s + 1]]``; O(kE)
memory for any n. It is one sort of rank * n + completion in the narrowest
integer type that holds it (int32 while C(n, k-1) * n < 2^31, else int64);
its int64, read-only arrays are published as one tuple, so a thread sees
no index or all of it, and hypergraphs are safe to share across threads.

Also here: balanced vertex partitions, the k-partite restriction (an edge
array whose delta* is counted in the pass that builds its row bitmasks,
and whose row table's connected components screen pi-search attempts),
perfect matching verification with reason codes, and the backtracking
oracles that find or count perfect matchings at desk scale.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

Edge = tuple[int, ...]


def _subset_count(n: int, r: int) -> int:
    """C(n, r); raises ValueError unless rank * n + vertex fits int64."""
    if math.comb(n, r) * n >= 2**63:
        raise ValueError(f"C({n}, {r}) * {n} exceeds the int64 range of subset ranks")
    return math.comb(n, r)


def _binomial_table(n: int, r: int) -> np.ndarray:
    """table[a, j] = C(a, j) for a < n, j <= r, capped at C(n, r): ranks read
    no larger entry. Raises ValueError unless rank * n + vertex fits int64."""
    cap = _subset_count(n, r)
    columns = [np.ones(n, dtype=np.int64)]
    for _ in range(r):  # C(a, j) = sum over b < a of C(b, j - 1), each sum below n * cap
        columns.append(np.minimum(np.concatenate(([0], np.cumsum(columns[-1])[:-1])), cap))
    return np.stack(columns, axis=1)


def lex_unrank(n: int, r: int, ranks) -> np.ndarray:
    """Rows (ascending) of the r-subsets of [n] at the given ascending
    lexicographic ranks, repeats allowed. With no more (r-1)-prefixes than
    ranks, all are unranked (recursively): prefix x_0 < ... < x_{r-2} holds
    the ranks from the previous prefix's end up to end = C(n, r) -
    sum_i C(n-1-x_i, r-i), rank t with last member t + n - end. Fewer ranks
    are decoded greedily, C(n, r) - 1 - rank = sum_i C(n-1-x_i, r-i), in
    O(len(ranks)) memory."""
    ranks = np.asarray(ranks, dtype=np.int64)
    table = _binomial_table(n, r)
    if r > 1 and math.comb(n - 1, r - 1) <= len(ranks):
        prefixes = lex_unrank(n - 1, r - 1, np.arange(math.comb(n - 1, r - 1)))
        end = math.comb(n, r) - table[n - 1 - prefixes, np.arange(r, 1, -1)].sum(axis=1)
        counts = np.diff(np.searchsorted(ranks, end), prepend=0)
        out = np.repeat(np.column_stack([prefixes, n - end]), counts, axis=0)
        out[:, -1] += ranks
        return out
    rest = math.comb(n, r) - 1 - ranks
    out = np.empty((len(rest), r), dtype=np.int64)
    for i in range(r):
        c = np.searchsorted(table[:, r - i], rest, side="right") - 1
        out[:, i] = n - 1 - c
        rest = rest - table[c, r - i]
    return out


def _lex_rank(n: int, subset: Edge) -> int:
    r = len(subset)
    return math.comb(n, r) - 1 - sum(math.comb(n - 1 - x, r - i) for i, x in enumerate(subset))


def _subset_ranks(n: int, edges: np.ndarray) -> np.ndarray:
    """(k, E) array: row j ranks every edge with its column j removed, in the
    narrowest integer type (int32 or int64) that holds rank * n + vertex."""
    k = edges.shape[1]
    count = _subset_count(n, k - 1)
    dtype = np.int32 if count * n < 2**31 else np.int64
    # rank = C(n, k-1) - 1 - sum_i C(n-1-x_i, k-1-i); weights[j, x] = C(n-1-x, j), rows contiguous
    weights = np.ascontiguousarray(_binomial_table(n, k - 1)[::-1].T, dtype=dtype)
    out = np.full((k, len(edges)), count - 1, dtype=dtype)
    for i in range(k - 1):  # member x_i is column i of the edge in rows j > i, column i + 1 in rows j <= i
        out[i + 1:] -= weights[k - 1 - i][edges[:, i]]
        out[:i + 1] -= weights[k - 1 - i][edges[:, i + 1]]
    return out


def _normalize_edges(n: int, k: int, edges: Iterable[Iterable[int]]) -> np.ndarray:
    rows = []
    for raw in edges:
        edge = tuple(sorted(map(operator.index, raw)))
        if len(edge) != k or len(set(edge)) != k:
            raise ValueError(f"edge {raw!r} must have exactly {k} distinct vertices")
        if edge[0] < 0 or edge[-1] >= n:
            raise ValueError(f"edge {raw!r} has a vertex outside [0, {n})")
        rows.append(edge)
    arr = np.array(rows, dtype=np.int64).reshape(len(rows), k)
    # lexicographic key within the index's int64 bound: first vertex, then rank of the rest
    key = _subset_ranks(n, arr)[0] + arr[:, 0] * math.comb(n, k - 1)
    _, first = np.unique(key, return_index=True)
    return arr[first]


class Hypergraph:
    """Immutable k-uniform hypergraph; subsets absent from the index have co-degree 0."""

    __slots__ = ("n", "k", "edge_array", "_index", "_edges")

    def __init__(self, n: int, k: int, edges: Iterable[Iterable[int]]):
        n, k = operator.index(n), operator.index(k)
        if k < 2:
            raise ValueError("uniformity k must be at least 2")
        if n < k:
            raise ValueError("need n >= k")
        self._finish_init(n, k, _normalize_edges(n, k, edges))

    def _finish_init(self, n: int, k: int, edge_array: np.ndarray) -> None:
        edge_array.flags.writeable = False
        self.n, self.k, self.edge_array, self._index, self._edges = n, k, edge_array, None, None

    def _build_index(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(_keys, _offsets, _completions), which _indexed builds on first read."""
        # one in-place sort of rank * n + completion in the ranks' type; keys start at pair 0 and rank changes
        n = self.n
        packed = _subset_ranks(n, self.edge_array)
        packed *= n
        packed += self.edge_array.T.astype(packed.dtype)
        packed = packed.reshape(-1)
        packed.sort()
        ranks = packed // n
        starts = np.flatnonzero(np.r_[ranks[:1] >= 0, ranks[1:] != ranks[:-1]])
        keys, offsets = ranks[starts].astype(np.int64, copy=False), np.append(starts, len(ranks))
        packed -= np.multiply(ranks, n, out=ranks)  # the completions; ranks go before the int64 copy
        del ranks
        index = (keys, offsets, packed.astype(np.int64, copy=False))
        for arr in index:
            arr.flags.writeable = False
        return index

    def _indexed(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._index is None:
            self._index = self._build_index()
        return self._index

    _keys = property(lambda self: self._indexed()[0])
    _offsets = property(lambda self: self._indexed()[1])
    _completions = property(lambda self: self._indexed()[2])

    @classmethod
    def _trusted(cls, n: int, k: int, edge_array: np.ndarray) -> "Hypergraph":
        """Internal fast path: n, k valid; rows ascending, distinct, in range, sorted."""
        obj = object.__new__(cls)
        obj._finish_init(n, k, edge_array)
        return obj

    @property
    def edges(self) -> tuple[Edge, ...]:
        """The lexicographically sorted tuple of ascending k-tuples."""
        if self._edges is None:
            self._edges = tuple(zip(*self.edge_array.T.tolist()))
        return self._edges

    def edge_count(self) -> int:
        return len(self.edge_array)

    # -- queries ---------------------------------------------------------

    def _completion_array(self, subset: Edge) -> np.ndarray:
        """Completions of an ascending, in-range (k-1)-subset (empty if none)."""
        rank = _lex_rank(self.n, subset)
        keys, offsets, completions = self._indexed()
        lo, hi = np.searchsorted(keys, [rank, rank + 1])
        return completions[offsets[lo]:offsets[hi]]

    def has_edge(self, edge: Iterable[int]) -> bool:
        e = tuple(sorted(map(operator.index, edge)))
        if len(e) != self.k or len(set(e)) != self.k or e[0] < 0 or e[-1] >= self.n:
            return False
        return bool(e[0] in self._completion_array(e[1:]))

    def _check_subset(self, subset: Iterable[int]) -> Edge:
        x = tuple(sorted(map(operator.index, subset)))
        if len(x) != self.k - 1 or len(set(x)) != len(x):
            raise ValueError(f"expected a set of {self.k - 1} distinct vertices, got {subset!r}")
        if x and (x[0] < 0 or x[-1] >= self.n):
            raise ValueError(f"subset {subset!r} has a vertex outside [0, {self.n})")
        return x

    def completions(self, subset: Iterable[int]) -> Edge:
        """Ascending vertices v with subset + {v} an edge (empty if none)."""
        return tuple(self._completion_array(self._check_subset(subset)).tolist())

    def codegree(self, subset: Iterable[int]) -> int:
        """Number of edges containing the given (k-1)-subset."""
        return len(self.completions(subset))

    def _degrees(self) -> np.ndarray:  # co-degree of each index key
        return np.diff(self._offsets)

    def _has_every_subset(self) -> bool:  # then the keys are 0..C(n, k-1)-1, each at its own position
        return len(self._keys) == math.comb(self.n, self.k - 1)

    def _subset_ids(self) -> tuple[np.ndarray, np.ndarray]:
        """(ids, degrees): the (E, k) array ``ids`` names the subset of edge e
        minus column j by ids[e, j], whose co-degree is degrees[ids[e, j]].
        While C(n, k-1) <= kE the ids are the subsets' ranks and ``degrees``
        one bincount of them, no larger than the index, which is not built;
        with more subsets they are index positions."""
        ranks = _subset_ranks(self.n, self.edge_array)
        count = math.comb(self.n, self.k - 1)
        if count <= ranks.size:
            return ranks.T, np.bincount(ranks.reshape(-1), minlength=count)
        return np.searchsorted(self._keys, ranks).T, self._degrees()

    def codegree_extremes(self) -> tuple[int, int]:
        """(min, max) co-degree over all C(n, k-1) subsets, zeros included.

        Zero-degree subsets are exactly the keys absent from the index, so
        the minimum is 0 whenever the index has fewer keys than C(n, k-1).
        """
        if not len(self._keys):
            return (0, 0)
        degrees = self._degrees()
        return (int(degrees.min()) if self._has_every_subset() else 0, int(degrees.max()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return ((self.n, self.k) == (other.n, other.k)
                and np.array_equal(self.edge_array, other.edge_array))

    def __hash__(self) -> int:
        return hash((self.n, self.k, self.edge_array.tobytes()))

    def __repr__(self) -> str:
        return f"Hypergraph(n={self.n}, k={self.k}, edges={self.edge_count()})"


class BalancedPartition:
    """Split of [0, n) into k parts of equal size m = n/k.

    ``parts`` are ascending tuples; ``assignment[v]`` is the part index of
    vertex v. Parts must be disjoint and cover [0, n) exactly.
    """

    __slots__ = ("parts", "assignment")

    def __init__(self, parts: Iterable[Iterable[int]]):
        norm = tuple(tuple(sorted(map(operator.index, part))) for part in parts)
        if not norm:
            raise ValueError("need at least one part")
        m = len(norm[0])
        if m == 0 or any(len(part) != m for part in norm):
            raise ValueError("all parts must have the same positive size")
        n = m * len(norm)
        assignment = [-1] * n
        for i, part in enumerate(norm):
            for v in part:
                if not 0 <= v < n:
                    raise ValueError(f"vertex {v} outside [0, {n})")
                if assignment[v] != -1:
                    raise ValueError(f"vertex {v} appears in two parts")
                assignment[v] = i
        self.parts = norm
        self.assignment = tuple(assignment)

    @classmethod
    def _trusted(cls, labels: np.ndarray, k: int) -> "BalancedPartition":
        """Internal fast path: labels[v] is the part of vertex v, each of
        0..k-1 labelling n/k vertices."""
        obj = object.__new__(cls)
        obj.parts = tuple(map(tuple, np.argsort(labels, kind="stable").reshape(k, -1).tolist()))
        obj.assignment = tuple(labels.tolist())
        return obj

    @property
    def n(self) -> int:
        return len(self.assignment)

    @property
    def k(self) -> int:
        return len(self.parts)

    @property
    def m(self) -> int:
        return len(self.parts[0])

    def __eq__(self, other) -> bool:
        if not isinstance(other, BalancedPartition):
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __repr__(self) -> str:
        return f"BalancedPartition(n={self.n}, k={self.k})"


def _transversal_mask(hypergraph: Hypergraph, partition: BalancedPartition) -> np.ndarray:
    """Per edge, whether it meets every part of the partition exactly once."""
    if partition.n != hypergraph.n:
        raise ValueError("partition and hypergraph disagree on n")
    if partition.k != hypergraph.k:
        raise ValueError("need exactly k parts for a k-uniform hypergraph")
    # k powers of two below 2^k sum to 2^k - 1 only when they are distinct; the
    # sum is at most k * 2^(k-1), in the narrowest type that holds it (Python
    # ints from k = 60 on, where every part is one vertex)
    k = partition.k
    bit = np.array([1 << a for a in partition.assignment], dtype=np.min_scalar_type(k << k - 1))
    columns = hypergraph.edge_array.T
    total = bit[columns[0]]
    for column in columns[1:]:
        total += bit[column]
    return total == (1 << k) - 1


class PartiteHypergraph:
    """k-partite restriction: every edge meets each part exactly once. Holds
    the kept edges as ``hypergraph``, whose index is built on first read."""

    __slots__ = ("hypergraph", "partition", "_rows", "_components")

    def __init__(self, hypergraph: Hypergraph, partition: BalancedPartition):
        transversal = _transversal_mask(hypergraph, partition)
        if not transversal.all():
            e = tuple(hypergraph.edge_array[np.argmin(transversal)].tolist())
            raise ValueError(f"edge {e} is not a transversal of the partition")
        self.hypergraph, self.partition = hypergraph, partition
        self._rows = self._components = None

    @classmethod
    def _trusted(cls, edge_array: np.ndarray, partition: BalancedPartition) -> "PartiteHypergraph":
        """Internal fast path: rows as in Hypergraph, each meeting every part once."""
        obj = object.__new__(cls)
        obj.hypergraph, obj.partition = Hypergraph._trusted(partition.n, partition.k, edge_array), partition
        obj._rows = obj._components = None
        return obj

    @property
    def edge_array(self) -> np.ndarray:
        return self.hypergraph.edge_array

    @property
    def n(self) -> int:
        return self.partition.n

    @property
    def k(self) -> int:
        return self.partition.k

    @property
    def m(self) -> int:
        return self.partition.m

    @property
    def parts(self) -> tuple[Edge, ...]:
        return self.partition.parts

    def min_transversal_codegree(self) -> int:
        """Minimum over parts i and transversal (k-1)-tuples X of the other
        parts of the number of completions of X inside part i, zeros
        included; every edge is transversal, so that is the co-degree of X."""
        return self._row_table()[2]

    def _tuple_ranks(self, groups: list[list[int]]) -> list[np.ndarray]:
        """For each list of parts, every edge's part-local rank over them:
        sum_j p_j * m^(len-1-j), p_j the position inside the j-th listed part
        of the edge's vertex there. Each is a sum of k lookups, one per edge
        column, in a per-vertex weight table that holds position times
        m^(len-1-j) on the j-th listed part and 0 elsewhere."""
        m, parts = self.m, np.asarray(self.parts)
        columns = np.ascontiguousarray(self.edge_array.T)
        ranks = []
        for group in groups:
            weight = np.zeros(self.n, dtype=np.int64)
            for place, part in enumerate(group):
                weight[parts[part]] = np.arange(m) * m ** (len(group) - 1 - place)
            rank = weight.take(columns[0])
            for column in columns[1:]:
                rank += weight.take(column)
            ranks.append(rank)
        return ranks

    def _row_table(self) -> tuple[np.ndarray, np.ndarray, int]:
        """(position, masks, delta*), built on first use: ``position[v]`` is
        v's index inside its part, and bit v of the int
        ``masks[sum_j p_j * m^(k-2-j)]`` (an object array, so one fancy index
        reads an attempt's m rows) is set exactly when last-part position v
        completes the transversal tuple with positions p_0..p_{k-2} in parts
        0..k-2 to an edge. The tuple ranks come from per-vertex weight tables
        (_tuple_ranks), with each part left out in turn for delta*."""
        if self._rows is None:
            m, k = self.m, self.k
            position = np.empty(self.n, dtype=np.int64)
            position[np.asarray(self.parts)] = np.arange(m)
            # tuple ranks with part i left out; their counts are the co-degrees
            *ranks, right = self._tuple_ranks([[j for j in range(k) if j != i] for i in range(k)] + [[k - 1]])
            dstar = min(int(np.bincount(r, minlength=m ** (k - 1)).min()) for r in ranks)
            # each row as `words` little-endian uint64s; edges are distinct, so
            # the bits added into one byte are too, and their sum is their OR
            words = (m + 63) // 64
            packed = np.zeros(m ** (k - 1) * 8 * words, dtype=np.uint8)
            np.add.at(packed, ranks[-1] * (8 * words) + right // 8, (1 << right % 8).astype(np.uint8))
            table = packed.view("<u8").reshape(-1, words).T
            masks = table[0].astype(object)  # Python ints, so masks wider than 64 bits join exactly
            for w in range(1, words):
                masks |= table[w].astype(object) << 64 * w
            self._rows = (position, masks, dstar)
        return self._rows

    def _row_components(self) -> tuple[np.ndarray, np.ndarray]:
        """(labels, sizes), built on first use: ``labels[t]`` is the connected
        component of row-table entry t in the bipartite graph between the
        m^(k-1) entries and the last part that the row masks describe, and
        ``sizes[c]`` the number of last-part vertices in component c. The
        components holding a last-part vertex come first, ordered by their
        least vertex; entries without an edge share the last class, of size 0.

        Every auxiliary graph is a subgraph of this one, so its rows in a
        component can only match inside it: an attempt whose row count
        differs from ``sizes`` in any component has no perfect matching."""
        if self._components is None:
            m, k = self.m, self.k
            index, right = self._tuple_ranks([list(range(k - 1)), [k - 1]])
            # root[v]: the least last-part vertex known to share v's component;
            # each round hooks every root to the least root an entry joins it
            # to, then jumps pointers until each vertex names its root
            root = np.arange(m)
            while True:
                least = np.full(m ** (k - 1), m)
                np.minimum.at(least, index, root[right])
                hooked = root.copy()
                np.minimum.at(hooked, root[right], least[index])
                while not np.array_equal(hooked, hooked[hooked]):
                    hooked = hooked[hooked]
                if np.array_equal(hooked, root):
                    break
                root = hooked
            # unchanged: every entry's vertices share one root
            _, of_root, sizes = np.unique(root, return_inverse=True, return_counts=True)
            labels = np.full(m ** (k - 1), len(sizes))
            labels[index] = of_root[right]
            self._components = (labels, np.append(sizes, 0))
        return self._components

    def __repr__(self) -> str:
        return f"PartiteHypergraph(n={self.n}, k={self.k}, edges={len(self.edge_array)})"


def induce_partite(hypergraph: Hypergraph, partition: BalancedPartition) -> PartiteHypergraph:
    """Keep exactly the edges that meet every part of the partition once."""
    return PartiteHypergraph._trusted(
        np.compress(_transversal_mask(hypergraph, partition), hypergraph.edge_array, axis=0), partition)


# -- perfect matchings ----------------------------------------------------


@dataclass(frozen=True)
class MatchingCheck:
    """Verification verdict with a reason code on failure.

    reason is one of "non-edge", "overlap", "uncovered"; detail names the
    offending edge or vertex.
    """

    ok: bool
    reason: Optional[str] = None
    detail: Optional[tuple] = None

    def __bool__(self) -> bool:
        return self.ok


def check_perfect_matching(hypergraph: Hypergraph, matching: Iterable[Iterable[int]]) -> MatchingCheck:
    """True iff the edges all belong to the hypergraph, are pairwise
    disjoint, and cover every vertex exactly once."""
    edges = [tuple(sorted(map(operator.index, e))) for e in matching]
    for e in edges:
        if not hypergraph.has_edge(e):
            return MatchingCheck(False, "non-edge", (e,))
    covered: set[int] = set()
    for e in edges:
        for v in e:
            if v in covered:
                return MatchingCheck(False, "overlap", (v, e))
            covered.add(v)
    if len(covered) != hypergraph.n:
        missing = min(set(range(hypergraph.n)) - covered)
        return MatchingCheck(False, "uncovered", (missing,))
    return MatchingCheck(True)


@dataclass(frozen=True)
class PMSearch:
    """Result of the backtracking search.

    When no matching is returned, reason is "k-does-not-divide-n" or
    "exhausted".
    """

    matching: Optional[tuple[Edge, ...]]
    reason: Optional[str] = None


def _perfect_matchings(hypergraph: Hypergraph):
    """Every perfect matching, by backtracking over the lowest uncovered
    vertex with candidate edges in lexicographic order; k must divide n.
    The search keeps one candidate iterator per chosen edge on an explicit
    stack, so its depth n/k is not bounded by the recursion limit."""
    n = hypergraph.n
    by_vertex: list[list[Edge]] = [[] for _ in range(n)]
    for e in hypergraph.edges:
        for v in e:
            by_vertex[v].append(e)
    covered = bytearray(n)
    chosen: list[Edge] = []
    candidates = [iter(by_vertex[0])]
    while candidates:
        e = next((e for e in candidates[-1] if not any(covered[u] for u in e)), None)
        if e is None:
            candidates.pop()
            if chosen:  # this vertex is exhausted: undo the edge that led here
                for u in chosen.pop():
                    covered[u] = 0
            continue
        for u in e:
            covered[u] = 1
        chosen.append(e)
        v = e[0] + 1  # e holds the lowest uncovered vertex, so that is e[0]
        while v < n and covered[v]:
            v += 1
        if v < n:
            candidates.append(iter(by_vertex[v]))
            continue
        yield tuple(chosen)
        for u in chosen.pop():
            covered[u] = 0


def bruteforce_perfect_matching(hypergraph: Hypergraph) -> PMSearch:
    """The first perfect matching of the deterministic backtracking search,
    a pure function of the hypergraph. Practical up to roughly n = 21 for
    k = 3.
    """
    if hypergraph.n % hypergraph.k:
        return PMSearch(None, "k-does-not-divide-n")
    first = next(_perfect_matchings(hypergraph), None)
    return PMSearch(first) if first is not None else PMSearch(None, "exhausted")


def count_perfect_matchings(hypergraph: Hypergraph) -> int:
    """Exact number of perfect matchings (0 when k does not divide n)."""
    if hypergraph.n % hypergraph.k:
        return 0
    return sum(1 for _ in _perfect_matchings(hypergraph))
