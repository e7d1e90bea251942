"""Independent brute-force oracles used across the test suite.

Everything here recomputes from first principles (plain enumeration,
permutations, exact rational tails) and deliberately avoids the package's
optimized code paths, so tests compare two unrelated routes to the same
answer.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from hypermatch.bipartite import BipartiteGraph, hall_certificate, max_matching
from hypermatch.pipeline import STRATEGY_FULL, PermutationFamily, PiSearch
from hypermatch.rng import MASK64, Rng, substream


def complete_edges(n, k):
    return list(itertools.combinations(range(n), k))


def lex_unrank_greedy(n, r, ranks):
    """Rows of the r-subsets of [n] at the given lexicographic ranks, in any
    order, a column at a time: C(n, r) - 1 - rank = sum_i C(n-1-x_i, r-i) is
    decoded greedily against a table of C(a, j), capped at C(n, r)."""
    cap = math.comb(n, r)
    table = np.array([[min(math.comb(a, j), cap) for j in range(r + 1)] for a in range(n)], dtype=np.int64)
    rest = cap - 1 - np.asarray(ranks, dtype=np.int64)
    out = np.empty((len(rest), r), dtype=np.int64)
    for i in range(r):
        c = np.searchsorted(table[:, r - i], rest, side="right") - 1
        out[:, i] = n - 1 - c
        rest = rest - table[c, r - i]
    return out


def sample_by_full_block(n, k, p, seed):
    """edge_array of H(n, k, p) drawn in one piece: a float uniform per
    k-subset from a single block of C(n, k) words, then the greedy decoder."""
    mask = Rng(seed).uniform_block(math.comb(n, k)) < p
    return lex_unrank_greedy(n, k, np.flatnonzero(mask))


def codegree_by_enumeration(edges, subset):
    s = set(subset)
    return sum(1 for e in edges if s.issubset(e))


def completions_by_enumeration(edges, k):
    """Every (k-1)-subset with a completion, in lexicographic order, mapped
    to its ascending completions; built edge by edge."""
    table = {}
    for e in edges:
        for j in range(k):
            table.setdefault(e[:j] + e[j + 1:], []).append(e[j])
    return {x: tuple(sorted(vs)) for x, vs in sorted(table.items())}


def part_counts_by_recount(edges, k, assignment):
    """For every (k-1)-subset with a completion, in lexicographic order, the
    number of its completions in each of the k parts; recounted edge by edge."""
    table = {}
    for e in edges:
        for j in range(k):
            table.setdefault(e[:j] + e[j + 1:], [0] * k)[assignment[e[j]]] += 1
    return [counts for _, counts in sorted(table.items())]


def worst_deviation_by_recount(edges, k, assignment):
    """max |c * k / d - 1| over subsets with d > 0 and their part counts c."""
    rows = part_counts_by_recount(edges, k, assignment)
    return max((abs(c * k / sum(row) - 1.0) for row in rows for c in row), default=0.0)


def codegree_into_by_enumeration(edges, subset, targets):
    s, t = set(subset), set(targets)
    return sum(1 for e in edges if s.issubset(e) and set(e) - s <= t)


def extremes_by_enumeration(n, k, edges):
    degs = [codegree_by_enumeration(edges, x) for x in itertools.combinations(range(n), k - 1)]
    return (min(degs), max(degs)) if degs else (0, 0)


def transversal_filter(edges, parts):
    part_of = {}
    for i, part in enumerate(parts):
        for v in part:
            part_of[v] = i
    return [e for e in edges if len({part_of[v] for v in e}) == len(parts)]


def min_transversal_codegree_scan(parts, edges):
    """Exhaustive k * m^(k-1) scan straight from the definition."""
    k = len(parts)
    edge_set = {tuple(sorted(e)) for e in edges}
    best = None
    for i in range(k):
        others = [parts[j] for j in range(k) if j != i]
        for combo in itertools.product(*others):
            d = sum(1 for v in parts[i] if tuple(sorted(combo + (v,))) in edge_set)
            best = d if best is None else min(best, d)
    return best if best is not None else 0


def perfect_matchings_by_permutations(n, k, edges):
    """Count perfect matchings by enumerating partitions of [0, n) into
    k-blocks; intended for n <= 9."""
    edge_set = {tuple(sorted(e)) for e in edges}
    count = 0

    def rec(remaining, acc):
        nonlocal count
        if not remaining:
            count += 1
            return
        first = remaining[0]
        for rest in itertools.combinations(remaining[1:], k - 1):
            block = tuple(sorted((first,) + rest))
            if block in edge_set:
                rec(tuple(v for v in remaining if v not in block), acc + 1)

    rec(tuple(range(n)), 0)
    return count


def perfect_matchings_recursive(hypergraph):
    """Every perfect matching, one recursive call per chosen edge: lowest
    uncovered vertex first, candidate edges in lexicographic order."""
    n = hypergraph.n
    by_vertex = [[e for e in hypergraph.edges if v in e] for v in range(n)]
    covered = [False] * n

    def walk(v, chosen):
        while v < n and covered[v]:
            v += 1
        if v == n:
            yield tuple(chosen)
            return
        for e in by_vertex[v]:
            if not any(covered[u] for u in e):
                for u in e:
                    covered[u] = True
                yield from walk(v + 1, chosen + [e])
                for u in e:
                    covered[u] = False

    return walk(0, [])


def greedy_scan_by_definition(edges, threshold, seed):
    """Edges the greedy adversary keeps when it scans the edge list in the
    order a scalar Rng(seed).shuffle gives, deleting an edge iff each of its
    (k-1)-subsets keeps co-degree >= threshold."""
    degree = {}
    for e in edges:
        for sub in itertools.combinations(e, len(e) - 1):
            degree[sub] = degree.get(sub, 0) + 1
    order = list(range(len(edges)))
    Rng(seed).shuffle(order)
    removed = set()
    for i in order:
        subsets = list(itertools.combinations(edges[i], len(edges[i]) - 1))
        if min(degree[sub] for sub in subsets) > threshold:
            for sub in subsets:
                degree[sub] -= 1
            removed.add(i)
    return tuple(e for i, e in enumerate(edges) if i not in removed)


def greedy_chunk_situations(edges, threshold, seed, size):
    """The situations that greedy_scan_by_definition's scan meets when its
    order is cut into chunks of ``size`` edges. A subset's room is its
    co-degree minus the threshold at the chunk's start; its occurrences are
    counted among the chunk's edges with no subset at room <= 0."""
    degree = {}
    for e in edges:
        for sub in itertools.combinations(e, len(e) - 1):
            degree[sub] = degree.get(sub, 0) + 1
    room = {sub: d - threshold for sub, d in degree.items()}
    order = list(range(len(edges)))
    Rng(seed).shuffle(order)
    seen = set()
    for start in range(0, len(order), size):
        chunk = [list(itertools.combinations(edges[i], len(edges[i]) - 1)) for i in order[start:start + size]]
        live = [subsets for subsets in chunk if min(room[sub] for sub in subsets) > 0]
        occurrences = {}
        for sub in itertools.chain(*live):
            occurrences[sub] = occurrences.get(sub, 0) + 1
        at_start = dict(room)
        hot = [any(occurrences[sub] > room[sub] for sub in subsets) for subsets in live]
        if live and not any(hot):
            seen.add("no hot edge")
        if live and all(hot):
            seen.add("every edge hot")
        if any(count == room[sub] + 1 for sub, count in occurrences.items()):
            seen.add("hot by one")
        for subsets in live:
            if min(room[sub] for sub in subsets) > 0:
                for sub in subsets:
                    room[sub] -= 1
        if any(count == at_start[sub] and room[sub] == 0 for sub, count in occurrences.items()):
            seen.add("cold, closed by its last edge")
    return seen


# -- partite row table -------------------------------------------------------


def part_columns(partite):
    """(position, columns) by the (E, k) by-part scatter: ``position[v]`` is
    v's index inside its part, and ``columns[j][e]`` the position of edge e's
    vertex in part j."""
    position = np.empty(partite.n, dtype=np.int64)
    position[np.asarray(partite.parts)] = np.arange(partite.m)
    edges = partite.edge_array
    by_part = np.empty_like(edges)  # column j: the vertex in part j
    by_part[np.arange(len(edges))[:, None], np.asarray(partite.partition.assignment)[edges]] = edges
    return position, list(position[by_part].T)


def row_table_by_part_columns(partite):
    """(position, masks, delta*) of the row table from part_columns: the
    tuple ranks with each part left out by np.ravel_multi_index, delta* as
    the least of their counts, zeros included, and each entry's mask OR-ed
    together one edge at a time as a Python int."""
    m, k = partite.m, partite.k
    position, columns = part_columns(partite)
    ranks = [np.ravel_multi_index(columns[:i] + columns[i + 1:], (m,) * (k - 1)) for i in range(k)]
    dstar = min(int(np.bincount(r, minlength=m ** (k - 1)).min()) for r in ranks)
    masks = [0] * m ** (k - 1)
    for index, right in zip(ranks[-1].tolist(), columns[-1].tolist()):
        masks[index] |= 1 << right
    return position, masks, dstar


def screen_inputs_by_part_columns(partite):
    """(index, right) per edge from part_columns: the row-table entry of its
    vertices in parts 0..k-2 and the position of its last-part vertex."""
    _, columns = part_columns(partite)
    return np.ravel_multi_index(columns[:-1], (partite.m,) * (partite.k - 1)), columns[-1]


# -- permutation search -----------------------------------------------------


def family_one_at_a_time(partite, seed, attempt, strategy):
    """Attempt's family as a fresh scalar Rng(substream(seed, attempt))
    shuffles the vertices of each randomized part in turn."""
    rng = Rng(substream(seed, attempt))
    maps = []
    for j, part in enumerate(partite.parts[:-1]):
        perm = list(part)
        if j == 0 or strategy == STRATEGY_FULL:
            rng.shuffle(perm)
        maps.append(tuple(perm))
    return PermutationFamily(tuple(maps))


def auxiliary_by_definition(partite, family):
    """Row i is adjacent to position v of the last part exactly when
    {maps[0][i], ..., maps[k-2][i], last[v]} is an edge."""
    edge_set = set(partite.hypergraph.edges)
    last = partite.parts[-1]
    rows = []
    for combo in zip(*family.maps):
        rows.append([v for v, w in enumerate(last) if tuple(sorted(combo + (w,))) in edge_set])
    return BipartiteGraph(partite.m, rows)


def pi_search_one_at_a_time(partite, budget, seed, strategy):
    """The permutation search drawing, building and matching one attempt at
    a time: the reference for the block draws of find_matching_permutations."""
    for attempt in range(1, budget + 1):
        family = family_one_at_a_time(partite, seed, attempt, strategy)
        graph = auxiliary_by_definition(partite, family)
        matching = max_matching(graph)
        if matching.is_perfect():
            return PiSearch(True, family, matching, attempt,
                            min_degree=graph.min_degree())
    return PiSearch(False, None, None, budget,
                    certificate=hall_certificate(graph, matching))


# -- partition retries ------------------------------------------------------


def retry_loop_one_at_a_time(scored, alpha):
    """(attempts, passed, best deviation, best partition) of the partition
    retry rule over (deviation, candidate) pairs, one candidate at a time:
    stop at the first deviation at most alpha, keep the first least one."""
    best = None
    for attempt, (deviation, candidate) in enumerate(scored, 1):
        if best is None or deviation < best[0]:
            best = (deviation, candidate)
        if deviation <= alpha:
            return (attempt, True) + best
    return (len(scored), False) + best


# -- bipartite ----------------------------------------------------------------


def random_bipartite(m, density, seed):
    mask = Rng(seed).uniform_block(m * m).reshape(m, m) < density
    return BipartiteGraph(m, [np.nonzero(mask[i])[0].tolist() for i in range(m)])


def exhaustive_max_matching(adjacency):
    """Exponential search for the maximum matching size, memoized on
    (row, used-rights bitmask); fine for m <= 8."""
    m = len(adjacency)
    memo = {}

    def best(i, used):
        if i == m:
            return 0
        key = (i, used)
        if key in memo:
            return memo[key]
        top = best(i + 1, used)
        for v in adjacency[i]:
            bit = 1 << v
            if not used & bit:
                top = max(top, 1 + best(i + 1, used | bit))
        memo[key] = top
        return top

    return best(0, 0)


def recursive_hopcroft_karp(adjacency):
    """Hopcroft-Karp with a recursive augmenting DFS: rows ascending,
    neighbors in stored order. Returns the row -> right map (-1 unmatched)."""
    m = len(adjacency)
    inf = m + 1
    match_l, match_r, dist = [-1] * m, [-1] * m, [inf] * m

    def bfs():
        queue = [u for u in range(m) if match_l[u] == -1]
        for u in range(m):
            dist[u] = 0 if match_l[u] == -1 else inf
        found, head = inf, 0
        while head < len(queue):
            u = queue[head]
            head += 1
            if dist[u] >= found:
                continue
            for v in adjacency[u]:
                w = match_r[v]
                if w == -1:
                    found = dist[u] + 1
                elif dist[w] == inf:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return found != inf

    def dfs(u):
        for v in adjacency[u]:
            w = match_r[v]
            if w == -1 or (dist[w] == dist[u] + 1 and dfs(w)):
                match_l[u], match_r[v] = v, u
                return True
        dist[u] = inf
        return False

    while bfs():
        for u in range(m):
            if match_l[u] == -1:
                dfs(u)
    return tuple(match_l)


def perfect_matching_exists(adjacency):
    m = len(adjacency)
    rows = [set(r) for r in adjacency]
    return any(all(perm[i] in rows[i] for i in range(m))
               for perm in itertools.permutations(range(m)))


def hall_conditions_hold(adjacency):
    """Both neighborhood conditions up to size ceil(m/2), by enumeration."""
    m = len(adjacency)
    rows = [set(r) for r in adjacency]
    cols = [set() for _ in range(m)]
    for u, r in enumerate(adjacency):
        for v in r:
            cols[v].add(u)
    for side in (rows, cols):
        for size in range(1, (m + 1) // 2 + 1):
            for group in itertools.combinations(range(m), size):
                if len(set().union(*(side[u] for u in group))) < size:
                    return False
    return True


def graph_from_bitmask(m, code):
    """Adjacency for the graph whose edge (u, v) is bit u*m+v of code."""
    return [[v for v in range(m) if (code >> (u * m + v)) & 1] for u in range(m)]


def rows_of_masks(masks, m):
    """Int row bitmasks as the (len(masks), ceil(m/64)) little-endian uint64
    words of the row table."""
    words = (m + 63) // 64
    return np.array([[mask >> 64 * w & MASK64 for w in range(words)] for mask in masks],
                    dtype="<u8").reshape(len(masks), words)


def graph_from_rows_bit_by_bit(rows):
    """The graph whose row i is adjacent to v exactly when bit v of rows[i]
    is set: each row's little-endian uint64 words joined into one int, whose
    binary digits are read one at a time."""
    adjacency = []
    for row in rows:
        digits = format(int.from_bytes(np.asarray(row, dtype="<u8").tobytes(), "little"), "b")[::-1]
        adjacency.append([v for v, digit in enumerate(digits) if digit == "1"])
    return BipartiteGraph(len(rows), adjacency)


# -- exact tails --------------------------------------------------------------


def exact_binomial_pmf(n, q: Fraction):
    return [math.comb(n, j) * q**j * (1 - q) ** (n - j) for j in range(n + 1)]


def exact_binomial_upper(n, q: Fraction, threshold):
    pmf = exact_binomial_pmf(n, q)
    return sum(pmf[max(0, threshold):], Fraction(0))


def binomial_upper_tail_listed(trials, q, threshold):
    """bounds.binomial_upper_tail for 0 < q < 1 with every pmf term held in
    a list before math.fsum, as it was summed before it took a generator: the
    upper side above the mode floor((trials + 1) q), else 1 minus the lower side."""
    log_q, log_rest, log_all = math.log(q), math.log1p(-q), math.lgamma(trials + 1)
    lo = max(0, threshold)
    upper = lo > math.floor((trials + 1) * q)
    terms = [
        math.exp(log_all - math.lgamma(j + 1) - math.lgamma(trials - j + 1)
                 + j * log_q + (trials - j) * log_rest)
        for j in (range(lo, trials + 1) if upper else range(lo))
    ]
    return min(1.0, math.fsum(terms)) if upper else 1.0 - math.fsum(terms)


def binomial_upper_by_integers(n, q: Fraction, threshold):
    """P(X >= threshold) exactly, each pmf numerator C(n, j) a^j (b-a)^(n-j)
    over b^n (q = a/b) derived from the previous one in integers: fast
    enough for n = 10^5 at q = 1/2."""
    a, b = q.numerator, q.denominator
    lo = max(0, threshold)
    if lo > n:
        return Fraction(0)
    term = math.comb(n, lo) * a**lo * (b - a) ** (n - lo)
    total = term
    for j in range(lo, n):
        term = term * (n - j) * a // ((j + 1) * (b - a))
        total += term
    return Fraction(total, b**n)


def exact_binomial_lower_strict(n, q: Fraction, threshold):
    """P(X < threshold) exactly."""
    pmf = exact_binomial_pmf(n, q)
    hi = min(n + 1, max(0, math.ceil(threshold)))
    if threshold == int(threshold):
        hi = min(n + 1, max(0, int(threshold)))
    return sum(pmf[:hi], Fraction(0))


def exact_hypergeometric_pmf(population, successes, draws):
    denom = math.comb(population, draws)
    return [
        Fraction(math.comb(successes, j) * math.comb(population - successes, draws - j), denom)
        if 0 <= draws - j <= population - successes else Fraction(0)
        for j in range(draws + 1)
    ]


def lower_median(values):
    """The ceil(q/2)-th smallest of q values."""
    ordered = sorted(values)
    return ordered[(len(ordered) + 1) // 2 - 1]
