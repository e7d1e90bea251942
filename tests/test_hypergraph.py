import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hypermatch.hypergraph as hg
from hypermatch import (
    BalancedPartition,
    Hypergraph,
    bruteforce_perfect_matching,
    check_perfect_matching,
    count_perfect_matchings,
    induce_partite,
    parity_adversary,
    sample_balanced_partition,
    sample_hypergraph,
    verify_partition,
)

import oracles


def complete(n, k=3):
    return Hypergraph(n, k, oracles.complete_edges(n, k))


# -- construction -------------------------------------------------------------


def test_complete_k6_has_20_edges():
    assert len(complete(6).edges) == math.comb(6, 3)


def test_normalization_dedupes_and_sorts():
    h = Hypergraph(6, 3, [(1, 2, 3), (3, 2, 1)])
    assert h.edges == ((1, 2, 3),)


def test_rejects_out_of_range_vertex():
    with pytest.raises(ValueError):
        Hypergraph(4, 3, [(0, 1, 5)])


def test_rejects_wrong_arity_and_repeats():
    with pytest.raises(ValueError):
        Hypergraph(6, 3, [(0, 1)])
    with pytest.raises(ValueError):
        Hypergraph(6, 3, [(0, 1, 1)])


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        Hypergraph(6, 1, [])
    with pytest.raises(ValueError):
        Hypergraph(2, 3, [])


# k * |E| above 50k for every k, with (0, ..., k-2) left at co-degree zero
@pytest.mark.parametrize("n,k,p,alpha", [(240, 2, 0.9, 0.05), (60, 3, 0.5, 0.5), (32, 4, 0.4, 1.0)])
def test_index_matches_enumeration(n, k, p, alpha):
    sampled = sample_hypergraph(n, k, p, 99)
    hole = set(range(k - 1))
    h = Hypergraph(n, k, [e for e in sampled.edges if not hole <= set(e)])
    assert k * len(h.edges) > 50_000
    table = oracles.completions_by_enumeration(h.edges, k)
    degrees = []
    for x in itertools.combinations(range(n), k - 1):
        assert h.completions(x) == table.get(x, ())
        degrees.append(len(table.get(x, ())))
    assert h.codegree(tuple(hole)) == 0
    for x in list(table)[:: len(table) // 5]:
        assert h.codegree(x) == oracles.codegree_by_enumeration(h.edges, x)
    assert h.codegree_extremes() == (min(degrees), max(degrees))
    assert all(h.has_edge(e) for e in h.edges[::97])
    assert not h.has_edge(tuple(range(k)))
    assert not h.has_edge(tuple(range(n - k, n + 1))) and not h.has_edge(tuple(range(k + 1)))

    partition = sample_balanced_partition(n, k, 5)
    expected = []
    for x, vs in table.items():
        for i, part in enumerate(partition.parts):
            count = len(set(vs) & set(part))
            if abs(count * k / len(vs) - 1.0) > alpha:
                expected.append((x, i, count, len(vs)))
    report = verify_partition(h, partition, alpha)
    assert report.violations == tuple(expected) and expected
    assert report.checked == len(table)
    assert report.skipped == math.comb(n, k - 1) - len(table)


def test_edge_array_and_lazy_edges():
    h = Hypergraph(6, 3, [(3, 2, 1), (0, 4, 5), (1, 2, 3)])
    assert h.edge_count() == 2 and h.edges == ((0, 4, 5), (1, 2, 3))
    assert h.edges is h.edges
    assert h.edge_array.tolist() == [[0, 4, 5], [1, 2, 3]]
    with pytest.raises(ValueError):
        h.edge_array[0, 0] = 1


def test_large_n_index_is_sparse():
    h = Hypergraph(10**6, 3, [(0, 5, 999_999), (1, 2, 3)])
    assert h.codegree((0, 5)) == 1 and h.completions((5, 999_999)) == (0,)
    assert h.codegree_extremes() == (0, 1)
    assert h.has_edge((999_999, 0, 5)) and not h.has_edge((0, 5, 6))


def test_rank_overflow_rejected_at_construction():
    # C(10^7, 3) * 10^7 > 2^63: a key rank * n + vertex would overflow int64
    with pytest.raises(ValueError):
        Hypergraph(10**7, 4, [])


@pytest.mark.parametrize("k,last", [(2, 46340), (3, 1625), (4, 337)])
def test_index_on_both_sides_of_the_int32_rank_cut(k, last):
    # last is the largest n with C(n, k-1) * n < 2^31; edges on the top vertices hold the largest ranks
    for n, rank_type in ((last, np.int32), (last + 1, np.int64)):
        h = Hypergraph(n, k, itertools.combinations((0, 1, n // 2, n - 3, n - 2, n - 1), k))
        assert hg._subset_ranks(n, h.edge_array).dtype == rank_type
        table = oracles.completions_by_enumeration(h.edges, k)
        assert hg.lex_unrank(n, k - 1, h._keys).tolist() == [list(x) for x in table]
        offsets = h._offsets.tolist()
        assert [tuple(h._completions[a:b].tolist()) for a, b in zip(offsets, offsets[1:])] == list(table.values())
        for arr in (h._keys, h._offsets, h._completions):
            assert arr.dtype == np.int64 and not arr.flags.writeable
        for e, slots in zip(h.edges, h._edge_slots().tolist()):
            assert [int(h._keys[s]) for s in slots] == [hg._lex_rank(n, e[:j] + e[j + 1:]) for j in range(k)]


@pytest.mark.parametrize("n,k,p,seed,full", [
    (60, 3, 0.5, 2024, True), (12, 4, 0.9, 1, True), (30, 3, 0.05, 5, False), (30, 2, 0.03, 3, False)])
def test_edge_slots_are_index_positions_with_and_without_absent_subsets(n, k, p, seed, full):
    # with every subset a key, each rank is its own position and the search is skipped
    h = sample_hypergraph(n, k, p, seed)
    assert h._has_every_subset() == full
    slots = h._edge_slots()
    assert slots.shape == (h.edge_count(), k)
    assert np.array_equal(slots, np.searchsorted(h._keys, hg._subset_ranks(n, h.edge_array)).T)
    assert np.array_equal(np.bincount(slots.ravel(), minlength=len(h._keys)), np.diff(h._offsets))


def test_subset_count_refuses_from_the_int64_rank_cut():
    for r in (1, 2, 3):
        lo, hi = r, 2**32  # bisect to C(lo, r) * lo < 2^63 <= C(hi, r) * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if math.comb(mid, r) * mid < 2**63 else (lo, mid)
        assert hg._subset_count(lo, r) == math.comb(lo, r)
        message = f"C({hi}, {r}) * {hi} exceeds the int64 range of subset ranks"
        with pytest.raises(ValueError, match=re.escape(message)):
            hg._subset_count(hi, r)
        with pytest.raises(ValueError, match=re.escape(message)):
            Hypergraph(hi, r + 1, [])
    h = Hypergraph(lo, 4, [(0, lo - 3, lo - 2, lo - 1), (1, lo - 3, lo - 2, lo - 1)])
    assert h.completions((lo - 3, lo - 2, lo - 1)) == (0, 1) and h.codegree((0, lo - 2, lo - 1)) == 1


@pytest.mark.parametrize("n,r", [(1, 1), (7, 1), (7, 3), (9, 9), (12, 5), (80, 79), (80, 80)])
def test_lex_unrank_matches_combinations(n, r):
    expected = list(itertools.combinations(range(n), r))
    got = hg.lex_unrank(n, r, np.arange(len(expected)))
    assert [tuple(row) for row in got.tolist()] == expected


@pytest.mark.parametrize("n,r", [(n, r) for n in (5, 9, 40) for r in range(1, 6)]
                         + [(3000, 1), (3000, 2), (300, 3), (100, 4), (60, 5)])
def test_lex_unrank_matches_greedy_decoder(n, r):
    total, rng = math.comb(n, r), np.random.default_rng(n * 10 + r)
    for size in (0, 1, 2, 50, 2000):
        # over the whole range with both ends, then inside a window [a, b], 0 < a <= b < total - 1
        a = int(rng.integers(1, total - 1)) if total > 2 else 0
        b = int(rng.integers(a, total - 1)) if total > 2 else total - 1
        for ranks, ends in [(rng.integers(0, total, size), [0, total - 1][: min(size, 2)]),
                            (rng.integers(a, b + 1, size), [])]:
            ranks = np.sort(np.concatenate([ranks, ranks[: size // 4], ends]).astype(np.int64))
            assert np.array_equal(hg.lex_unrank(n, r, ranks), oracles.lex_unrank_greedy(n, r, ranks))


@pytest.mark.parametrize("n,r,ranks", [
    (50_000, 3, [12_345_678_901_234]),
    (2_000, 5, [2_000_000_000_000]),
    (50_000, 3, [0, math.comb(50_000, 3) - 1]),
    (3_000, 4, np.sort(np.random.default_rng(4).integers(0, math.comb(3_000, 4), 1000)))])
def test_lex_unrank_sparse_ranks_are_cheap(n, r, ranks):
    # fewer ranks than the C(n-1, r-1) prefixes (1.2e9 at n=50,000, r=3) are
    # decoded one by one: the peak is a few copies of the n x (r+1) binomial table
    tracemalloc.start()
    try:
        got = hg.lex_unrank(n, r, ranks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, oracles.lex_unrank_greedy(n, r, ranks))
    assert peak < 8 * n * (r + 1) * 8


# -- co-degree queries ---------------------------------------------------------


def test_codegree_on_complete():
    assert complete(6).codegree((0, 1)) == 4


def test_codegree_zero_and_enumerated():
    h = Hypergraph(6, 3, [(0, 1, 2), (0, 1, 3), (2, 3, 4)])
    assert h.codegree((4, 5)) == 0
    assert h.codegree((0, 1)) == oracles.codegree_by_enumeration(h.edges, (0, 1)) == 2


def test_codegree_rejects_wrong_size():
    with pytest.raises(ValueError):
        complete(6).codegree((0, 1, 2))
    with pytest.raises(ValueError):
        complete(6).codegree((0, 9))


def test_extremes():
    assert complete(6).codegree_extremes() == (4, 4)
    h = Hypergraph(6, 3, [(0, 1, 2), (0, 1, 3), (2, 3, 4)])
    assert h.codegree_extremes() == oracles.extremes_by_enumeration(6, 3, h.edges) == (0, 2)
    assert Hypergraph(6, 3, []).codegree_extremes() == (0, 0)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_codegree_sum_is_k_times_edges(data):
    n = data.draw(st.integers(3, 7))
    universe = oracles.complete_edges(n, 3)
    edges = data.draw(st.lists(st.sampled_from(universe), max_size=len(universe)))
    h = Hypergraph(n, 3, edges)
    total = sum(h.codegree(x) for x in itertools.combinations(range(n), 2))
    assert total == 3 * len(h.edges)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32))
def test_parts_split_every_codegree(seed):
    h = sample_hypergraph(12, 3, 0.5, seed)
    partition = sample_balanced_partition(12, 3, seed + 1)
    for x in itertools.combinations(range(12), 2):
        split = sum(oracles.codegree_into_by_enumeration(h.edges, x, part) for part in partition.parts)
        assert split == h.codegree(x)


# -- partitions and the partite restriction ------------------------------------


def test_balanced_partition_validation():
    p = BalancedPartition([(0, 1), (2, 3), (4, 5)])
    assert p.m == 2 and p.k == 3 and p.n == 6
    assert p.assignment == (0, 0, 1, 1, 2, 2)
    with pytest.raises(ValueError):
        BalancedPartition([(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        BalancedPartition([(0, 1), (2,)])
    with pytest.raises(ValueError):
        BalancedPartition([(0, 1), (2, 9)])


def test_induce_complete_k6():
    p = BalancedPartition([(0, 1), (2, 3), (4, 5)])
    hp = induce_partite(complete(6), p)
    assert len(hp.hypergraph.edges) == 8


def test_induce_drops_nontransversal():
    p = BalancedPartition([(0, 1), (2, 3), (4, 5)])
    hp = induce_partite(Hypergraph(6, 3, [(0, 1, 2)]), p)
    assert hp.hypergraph.edges == ()


@pytest.mark.parametrize("seed", range(5))
def test_induce_matches_filter_oracle(seed):
    for n, k, p in [(12, 3, 0.4), (12, 2, 0.5), (12, 4, 0.4), (15, 5, 0.3)]:
        h = sample_hypergraph(n, k, p, seed)
        partition = sample_balanced_partition(n, k, seed + 100)
        hp = induce_partite(h, partition)
        expected = oracles.transversal_filter(h.edges, partition.parts)
        assert list(hp.hypergraph.edges) == sorted(expected)


@pytest.mark.parametrize("k", [6, 7, 13, 14, 28, 29, 59, 60, 64, 65])
def test_induce_keeps_the_one_edge_of_singleton_parts(k):
    # one vertex per part: the only edge is a transversal; k spans each switch of the bit sum's type
    h = Hypergraph(k, k, [range(k)])
    assert induce_partite(h, BalancedPartition([(v,) for v in range(k)])).hypergraph == h


@pytest.mark.parametrize("seed", range(5))
def test_induce_never_increases_codegree(seed):
    h = sample_hypergraph(9, 3, 0.6, seed)
    p = sample_balanced_partition(9, 3, seed)
    hp = induce_partite(h, p)
    for x in itertools.combinations(range(9), 2):
        assert hp.hypergraph.codegree(x) <= h.codegree(x)


def test_partite_rejects_nontransversal_edges():
    p = BalancedPartition([(0, 1), (2, 3), (4, 5)])
    with pytest.raises(ValueError):
        hg.PartiteHypergraph(Hypergraph(6, 3, [(0, 1, 2)]), p)
    edges = list(itertools.product(*p.parts)) + [(0, 1, 4)]
    with pytest.raises(ValueError, match=r"\(0, 1, 4\) is not a transversal"):
        hg.PartiteHypergraph(Hypergraph(6, 3, edges), p)


def test_min_transversal_codegree_full_and_empty():
    p = BalancedPartition([(0, 1), (2, 3), (4, 5)])
    full = induce_partite(complete(6), p)
    assert full.min_transversal_codegree() == 2
    empty = induce_partite(Hypergraph(6, 3, []), p)
    assert empty.min_transversal_codegree() == 0


@pytest.mark.parametrize("seed", range(6))
def test_min_transversal_codegree_matches_scan(seed):
    h = sample_hypergraph(12, 3, 0.5, seed)
    p = sample_balanced_partition(12, 3, seed + 7)
    hp = induce_partite(h, p)
    expected = oracles.min_transversal_codegree_scan(p.parts, hp.hypergraph.edges)
    assert hp.min_transversal_codegree() == expected


@pytest.mark.parametrize("n,k,p", [(8, 2, 0.5), (8, 2, 0.9), (12, 4, 0.7), (16, 4, 0.9),
                                   (10, 5, 0.9), (15, 5, 0.95)])
def test_min_transversal_codegree_matches_scan_other_k(n, k, p):
    h = sample_hypergraph(n, k, p, n * k)
    part = sample_balanced_partition(n, k, 3)
    hp = induce_partite(h, part)
    expected = oracles.min_transversal_codegree_scan(part.parts, hp.hypergraph.edges)
    assert hp.min_transversal_codegree() == expected


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_min_transversal_codegree_planted_complete_partite(k):
    # full, one edge short of full, one tuple short of full; the view's
    # index has a key for every tuple with a completion
    m = 3
    part = sample_balanced_partition(k * m, k, 5)
    full = list(itertools.product(*part.parts))
    hole = full[0][:-1]
    tuples = k * m ** (k - 1)
    cases = [(full, m, tuples), (full[1:], m - 1, tuples),
             ([e for e in full if e[:-1] != hole], 0, tuples - 1)]
    for edges, dstar, keys in cases:
        hp = induce_partite(Hypergraph(k * m, k, edges), part)
        assert len(hp.hypergraph._keys) == keys
        assert hp.min_transversal_codegree() == dstar
        assert oracles.min_transversal_codegree_scan(part.parts, edges) == dstar


@pytest.mark.parametrize("m", [64, 65, 80])
def test_min_transversal_codegree_k2_matches_scan_one_and_two_word_rows(m):
    part = sample_balanced_partition(2 * m, 2, m)
    full = list(itertools.product(*part.parts))  # delta* m, then m - 1
    for edges in ([], full, full[1:], sample_hypergraph(2 * m, 2, 0.97, m).edges):
        hp = induce_partite(Hypergraph(2 * m, 2, edges), part)
        expected = oracles.min_transversal_codegree_scan(part.parts, hp.hypergraph.edges)
        assert hp.min_transversal_codegree() == expected


def latin_partite(part, shifts):
    """Edges (a, b, c, (a + b + c + s) mod m) in part-local positions, one
    block per shift s: each of the k * m^3 transversal triples has exactly
    len(shifts) completions."""
    m = part.m
    a, b, c = (axis.ravel() for axis in np.indices((m, m, m)))
    local = np.concatenate([np.stack([a, b, c, (a + b + c + s) % m], axis=1) for s in shifts])
    edges = np.sort(np.asarray(part.parts)[np.arange(4), local], axis=1)
    return edges[np.lexsort(edges.T[::-1])]


@pytest.mark.parametrize("m", [5, 64, 65, 80])
def test_min_transversal_codegree_k4_planted_latin(m):
    part = sample_balanced_partition(4 * m, 4, m)
    one = latin_partite(part, [0])
    cases = [(one, 1), (one[1:], 0), (one[:0], 0)]
    if m == 5:  # small enough for the scan, and for the complete restriction
        cases += [(latin_partite(part, [0, 2]), 2), (latin_partite(part, range(m)), m)]
    for edges, dstar in cases:
        h = Hypergraph._trusted(4 * m, 4, edges)
        hp = induce_partite(h, part)
        assert np.array_equal(hp.edge_array, edges)
        assert hp.min_transversal_codegree() == dstar
        if m == 5:
            assert oracles.min_transversal_codegree_scan(part.parts, h.edges) == dstar


@pytest.mark.parametrize("seed", range(4))
def test_partite_view_equals_the_kept_edges(seed):
    h = sample_hypergraph(12, 3, 0.5, seed)
    p = sample_balanced_partition(12, 3, seed)
    hp = induce_partite(h, p)
    kept = oracles.transversal_filter(h.edges, p.parts)
    assert hp.hypergraph == Hypergraph(12, 3, kept)
    assert hp.hypergraph is hp.hypergraph
    # the validating constructor keeps the graph it is given and agrees on the rest
    checked = hg.PartiteHypergraph(hp.hypergraph, p)
    assert checked.hypergraph is hp.hypergraph
    assert checked.min_transversal_codegree() == hp.min_transversal_codegree()
    for built, kept in zip(checked._row_table(), hp._row_table()):
        assert np.array_equal(built, kept)


def _components_by_networkx(partite):
    """(labels, sizes) of PartiteHypergraph._row_components from
    networkx.connected_components of the graph joining entry
    t = sum_j p_j * m^(k-2-j) to last-part position v for every edge with
    positions p_0..p_{k-2}, v in its parts."""
    nx = pytest.importorskip("networkx")
    m, k = partite.m, partite.k
    where = {v: (j, i) for j, part in enumerate(partite.parts) for i, v in enumerate(part)}
    g = nx.Graph()
    g.add_nodes_from(("entry", t) for t in range(m ** (k - 1)))
    g.add_nodes_from(("vertex", v) for v in range(m))
    for edge in partite.edge_array.tolist():
        positions = [i for _, i in sorted(where[v] for v in edge)]
        g.add_edge(("entry", sum(i * m ** (k - 2 - j) for j, i in enumerate(positions[:-1]))),
                   ("vertex", positions[-1]))
    with_vertices = sorted((sorted(i for kind, i in c if kind == "vertex"), [i for kind, i in c if kind == "entry"])
                           for c in nx.connected_components(g) if any(kind == "vertex" for kind, _ in c))
    labels = np.full(m ** (k - 1), len(with_vertices))
    for c, (_, entries) in enumerate(with_vertices):
        labels[entries] = c
    return labels, [len(vertices) for vertices, _ in with_vertices] + [0]


def _chain_partite(m):
    """k=2 table shaped as one path through all 2m nodes, in scrambled order:
    a[i] - b[i] - a[i+1] for a[i] = 7i mod m, b[i] = 11i mod m (m prime to 77)."""
    a, b = [(7 * i) % m for i in range(m)], [(11 * i) % m for i in range(m)]
    edges = [(a[i], m + b[i]) for i in range(m)] + [(a[i + 1], m + b[i]) for i in range(m - 1)]
    return induce_partite(Hypergraph(2 * m, 2, edges), BalancedPartition([range(m), range(m, 2 * m)]))


def _without(partite, vertices):
    """The partite graph without the edges through the given vertices."""
    kept = ~np.isin(partite.edge_array, vertices).any(axis=1)
    return hg.PartiteHypergraph._trusted(partite.edge_array[kept], partite.partition)


def _sampled_partite(n, k, p, seed):
    return induce_partite(sample_hypergraph(n, k, p, seed), sample_balanced_partition(n, k, seed))


@pytest.mark.parametrize("build", [
    lambda: _sampled_partite(12, 2, 0.2, 1),
    lambda: _sampled_partite(12, 2, 0.8, 2),
    lambda: _sampled_partite(18, 3, 0.15, 3),
    lambda: _sampled_partite(18, 3, 0.6, 4),
    lambda: _sampled_partite(16, 4, 0.1, 5),
    lambda: _sampled_partite(16, 4, 0.5, 6),
    lambda: induce_partite(parity_adversary(sample_hypergraph(16, 4, 0.7, 7)).result,
                           sample_balanced_partition(16, 4, 7)),
    lambda: _chain_partite(31),
    lambda: _chain_partite(64),
    # an isolated last-part vertex, and every tuple through one part-0 vertex without an edge
    lambda: _without(_sampled_partite(18, 3, 0.5, 8), [sample_balanced_partition(18, 3, 8).parts[i][0]
                                                       for i in (0, 2)]),
    lambda: _without(_sampled_partite(16, 4, 0.6, 9), list(sample_balanced_partition(16, 4, 9).parts[3][:2])),
    lambda: _without(_sampled_partite(12, 3, 0.5, 0), list(range(12))),
], ids=["k2-sparse", "k2-dense", "k3-sparse", "k3-dense", "k4-sparse", "k4-dense", "k4-parity",
        "k2-chain-31", "k2-chain-64", "k3-isolated", "k4-isolated", "k3-empty"])
def test_row_components_equal_connected_components(build):
    hp = build()
    labels, sizes = hp._row_components()
    expected_labels, expected_sizes = _components_by_networkx(hp)
    assert np.array_equal(labels, expected_labels)
    assert sizes.tolist() == expected_sizes
    assert hp._row_components() is hp._row_components()


def _random_partite(k, m, draws, seed, adversary=None):
    """Partite graph of up to ``draws`` random transversal edges on k parts
    of m vertices, optionally after the parity adversary."""
    part = sample_balanced_partition(k * m, k, seed)
    local = np.random.default_rng(seed).integers(0, m, size=(draws, k))
    rows = np.unique(np.sort(np.asarray(part.parts)[np.arange(k), local], axis=1), axis=0)
    h = Hypergraph._trusted(k * m, k, rows.reshape(-1, k))
    return induce_partite(adversary(h).result if adversary else h, part)


# (k, m): m = 64 and 65 give one- and two-word rows; k = 4 at m = 65 has
# 274,625 entries, and larger k stays at small m, since the row table holds
# m^(k-1) Python ints
ROW_TABLE_SIZES = [(2, 64), (2, 65), (3, 64), (3, 65), (4, 5), (4, 65), (5, 4)]
ROW_TABLE_KINDS = {
    "sparse": lambda k, m, seed: _random_partite(k, m, m ** (k - 1) // 2, seed),
    "dense": lambda k, m, seed: _random_partite(k, m, m ** k // 2, seed),  # ~39% of the m^k tuples
    "parity": lambda k, m, seed: _random_partite(k, m, 2 * m ** (k - 1), seed, parity_adversary),
    "edgeless": lambda k, m, seed: _random_partite(k, m, 0, seed),
}


# dense at k = 4, m = 65 would draw 8.9M edges for the per-edge oracle loop
ROW_TABLE_CASES = [(k, m, kind) for k, m in ROW_TABLE_SIZES for kind in ROW_TABLE_KINDS
                   if (k, m, kind) != (4, 65, "dense")]


@pytest.mark.parametrize("k,m,kind", ROW_TABLE_CASES, ids=[f"k{k}-m{m}-{kind}" for k, m, kind in ROW_TABLE_CASES])
def test_row_table_and_screen_equal_the_part_columns_construction(k, m, kind, monkeypatch):
    hp = ROW_TABLE_KINDS[kind](k, m, k * m)
    position, masks, dstar = hp._row_table()
    expected = oracles.row_table_by_part_columns(hp)
    assert np.array_equal(position, expected[0])
    assert masks.tolist() == expected[1]
    assert dstar == expected[2]
    if m ** k <= 5000:  # the scan tries every vertex for every transversal tuple
        assert dstar == oracles.min_transversal_codegree_scan(hp.parts, map(tuple, hp.edge_array.tolist()))
    index, right = oracles.screen_inputs_by_part_columns(hp)
    assert [r.tolist() for r in hp._tuple_ranks([list(range(k - 1)), [k - 1]])] == [index.tolist(), right.tolist()]
    labels, sizes = hp._row_components()
    # the same screen built from the by-part columns labels every entry alike
    monkeypatch.setattr(hg.PartiteHypergraph, "_tuple_ranks", lambda self, groups: [index, right])
    columns_labels, columns_sizes = hg.PartiteHypergraph._trusted(hp.edge_array, hp.partition)._row_components()
    assert np.array_equal(labels, columns_labels) and np.array_equal(sizes, columns_sizes)


# -- perfect matchings ----------------------------------------------------------


def test_check_perfect_matching_accepts():
    assert check_perfect_matching(complete(6), [(0, 1, 2), (3, 4, 5)]).ok


def test_check_perfect_matching_reasons():
    h = complete(6)
    overlap = check_perfect_matching(h, [(0, 1, 2), (2, 3, 4)])
    assert not overlap.ok and overlap.reason == "overlap"
    uncovered = check_perfect_matching(h, [(0, 1, 2)])
    assert not uncovered.ok and uncovered.reason == "uncovered"
    sparse = Hypergraph(6, 3, [(0, 1, 2)])
    alien = check_perfect_matching(sparse, [(0, 1, 2), (3, 4, 5)])
    assert not alien.ok and alien.reason == "non-edge"


def test_bruteforce_finds_and_counts_complete():
    h = complete(6)
    found = bruteforce_perfect_matching(h)
    assert found.matching is not None
    assert check_perfect_matching(h, found.matching).ok
    assert count_perfect_matchings(h) == 10


def test_bruteforce_indivisible():
    h = Hypergraph(7, 3, [(0, 1, 2)])
    result = bruteforce_perfect_matching(h)
    assert result.matching is None
    assert result.reason == "k-does-not-divide-n"
    assert count_perfect_matchings(h) == 0


@pytest.mark.parametrize("n", [3, 6, 9])
def test_count_on_complete_matches_formula(n):
    expected = math.factorial(n) // (6 ** (n // 3) * math.factorial(n // 3))
    assert count_perfect_matchings(complete(n)) == expected
    assert oracles.perfect_matchings_by_permutations(n, 3, oracles.complete_edges(n, 3)) == expected


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32))
def test_bruteforce_output_always_verifies(seed):
    h = sample_hypergraph(9, 3, 0.5, seed)
    result = bruteforce_perfect_matching(h)
    if result.matching is not None:
        assert check_perfect_matching(h, result.matching).ok
        assert count_perfect_matchings(h) > 0
    else:
        assert count_perfect_matchings(h) == 0


def test_bruteforce_is_not_bounded_by_the_recursion_limit():
    h = Hypergraph(4000, 2, [(2 * i, 2 * i + 1) for i in range(2000)])
    assert bruteforce_perfect_matching(h).matching == h.edges
    assert count_perfect_matchings(h) == 1


@pytest.mark.parametrize("n,k,p", [(9, 3, 0.7), (12, 3, 0.5), (10, 2, 0.5), (8, 4, 0.8)])
def test_matchings_in_the_order_of_the_recursive_search(n, k, p):
    for seed in range(3):
        h = sample_hypergraph(n, k, p, seed)
        assert list(hg._perfect_matchings(h)) == list(oracles.perfect_matchings_recursive(h))


@pytest.mark.parametrize("seed", range(4))
def test_count_matches_permutation_oracle(seed):
    h = sample_hypergraph(9, 3, 0.6, seed)
    assert count_perfect_matchings(h) == oracles.perfect_matchings_by_permutations(9, 3, h.edges)
