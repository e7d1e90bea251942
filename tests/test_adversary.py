import itertools
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from hypermatch import adversary
from hypermatch import (
    Hypergraph,
    bruteforce_perfect_matching,
    count_perfect_matchings,
    default_odd_v1,
    greedy_budget_adversary,
    parity_adversary,
    sample_hypergraph,
)

import oracles


def complete(n, k=3):
    return Hypergraph(n, k, oracles.complete_edges(n, k))


# -- parity ---------------------------------------------------------------------


@pytest.mark.parametrize("n,size", [(2, 1), (4, 3), (6, 3), (9, 5), (12, 7), (60, 31)])
def test_default_v1_is_odd_prefix(n, size):
    v1 = default_odd_v1(n)
    assert v1 == tuple(range(size))
    assert len(v1) % 2 == 1


def test_parity_on_complete_k6():
    out = parity_adversary(complete(6), v1=(0, 1, 2))
    assert len(out.result.edges) == 10 and out.deleted == 10
    assert out.result.codegree((0, 1)) == 3
    assert out.result.codegree((0, 3)) == 2
    assert out.result.codegree((3, 4)) == 1
    assert bruteforce_perfect_matching(out.result).matching is None
    assert out.residual_min_codegree == out.result.codegree_extremes()[0] == 1


def test_parity_keeps_even_intersections_only():
    h = sample_hypergraph(10, 3, 0.7, 3)
    v1 = (0, 1, 2, 3, 4)
    out = parity_adversary(h, v1)
    v1set = set(v1)
    assert set(out.result.edges) == {e for e in h.edges if len(v1set & set(e)) % 2 == 0}


@pytest.mark.parametrize("n,k,p,v1", [
    (9, 2, 0.6, (1, 4, 8)), (12, 3, 0.5, (0, 3, 5, 6, 11)), (12, 4, 0.5, (2,)),
    (12, 5, 0.4, (0, 1, 2, 7, 9, 10, 11)), (60, 3, 0.5, None)])
def test_parity_residual_equals_set_filter(n, k, p, v1):
    h = sample_hypergraph(n, k, p, n + k)
    out = parity_adversary(h, v1)
    v1set = set(out.params["v1"])
    kept = [e for e in h.edges if len(v1set & set(e)) % 2 == 0]
    assert out.result.edges == tuple(kept)
    assert out.deleted == h.edge_count() - len(kept)


def test_parity_singleton_isolates_vertex():
    h = complete(6)
    out = parity_adversary(h, v1=(0,))
    assert all(0 not in e for e in out.result.edges)
    assert out.deleted == sum(1 for e in h.edges if 0 in e)
    assert bruteforce_perfect_matching(out.result).matching is None


def test_parity_on_empty():
    out = parity_adversary(Hypergraph(6, 3, []))
    assert out.result.edges == () and out.deleted == 0


def test_parity_rejects_even_v1():
    with pytest.raises(ValueError):
        parity_adversary(complete(6), v1=(0, 1))
    with pytest.raises(ValueError):
        parity_adversary(complete(6), v1=(0, 9, 10))


def test_parity_v1_ids_must_be_integers():
    for bad in ([1.9, 2.2, 0.5], ["1", "2", "3"]):
        with pytest.raises(TypeError):
            parity_adversary(complete(6), v1=bad)
    out = parity_adversary(complete(6), v1=[np.int64(0), np.int32(2), True])
    assert out.params["v1"] == (0, 1, 2)


def test_parity_checks_v1_as_it_reads_it():
    h = complete(9)
    tracemalloc.start()
    try:  # the first vertex outside [0, n) stops the read of a 10^12-long range
        with pytest.raises(ValueError, match=r"v1 has a vertex outside \[0, n\)"):
            parity_adversary(h, range(10**12))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    with pytest.raises(ValueError, match="outside"):
        parity_adversary(h, v1=(0, 1, -1))
    assert parity_adversary(h, v1=[4, 0, 4, 2, 0]).params["v1"] == (0, 2, 4)
    with pytest.raises(ValueError, match="odd size"):
        parity_adversary(h, v1=[0, 1, 1])


@pytest.mark.parametrize("n", [6, 9])
def test_parity_soundness_small(n):
    assert count_perfect_matchings(parity_adversary(complete(n)).result) == 0
    for seed in range(5):
        h = sample_hypergraph(n, 3, 0.8, seed)
        assert count_perfect_matchings(parity_adversary(h).result) == 0


def test_parity_degree_split_cases():
    # even |X ^ V1|: every edge X + {v} with v in V2 - X survives;
    # odd: every edge X + {v} with v in V1 - X survives
    h = sample_hypergraph(12, 3, 0.6, 11)
    v1 = default_odd_v1(12)
    v1set = set(v1)
    v2 = [v for v in range(12) if v not in v1set]
    out = parity_adversary(h, v1)
    for x in itertools.combinations(range(12), 2):
        if len(v1set & set(x)) % 2 == 0:
            keep = [v for v in v2 if v not in x]
        else:
            keep = [v for v in v1 if v not in x]
        assert (oracles.codegree_into_by_enumeration(out.result.edges, x, keep)
                == oracles.codegree_into_by_enumeration(h.edges, x, keep))


def test_parity_deterministic():
    h = sample_hypergraph(9, 3, 0.5, 2)
    assert parity_adversary(h).result == parity_adversary(h).result


# -- greedy ----------------------------------------------------------------------


def test_greedy_on_complete_k6_threshold_4_deletes_nothing():
    out = greedy_budget_adversary(complete(6), 4, 123)
    assert out.deleted == 0
    assert out.result == complete(6)


def test_greedy_threshold_zero_deletes_everything():
    out = greedy_budget_adversary(complete(6), 0, 5)
    assert out.result.edges == () and out.deleted == 20


def test_greedy_on_complete_k9():
    out = greedy_budget_adversary(complete(9), 3, 77)
    assert out.residual_min_codegree >= 3
    assert len(out.result.edges) < len(complete(9).edges)
    assert out.residual_min_codegree == out.result.codegree_extremes()[0]


def test_greedy_rejects_negative_threshold():
    with pytest.raises(ValueError):
        greedy_budget_adversary(complete(6), -1, 0)


@pytest.mark.parametrize("seed", range(6))
def test_greedy_monotonicity(seed):
    h = sample_hypergraph(12, 3, 0.7, seed)
    floor = min(h.codegree_extremes()[0], 4)
    out = greedy_budget_adversary(h, 4, seed * 13)
    assert out.residual_min_codegree >= floor
    assert set(out.result.edges) <= set(h.edges)


def assert_scan_by_definition(h, threshold, seed):
    expected = oracles.greedy_scan_by_definition(h.edges, threshold, seed)
    out = greedy_budget_adversary(h, threshold, seed)
    assert out.result.edges == expected
    assert out.deleted == len(h.edges) - len(expected)
    completions = oracles.completions_by_enumeration(expected, h.k)  # absent subsets have co-degree 0
    everywhere = len(completions) == math.comb(h.n, h.k - 1)
    assert out.residual_min_codegree == (min(map(len, completions.values())) if everywhere else 0)
    return out


@pytest.mark.parametrize("seed", [-3, 0, 1, 2024, 2**64 + 9])
def test_greedy_scans_in_the_scalar_shuffle_order(seed):
    graphs = [(12, 2, 0.5, 4), (12, 3, 0.7, 21), (10, 4, 0.6, 8), (9, 5, 0.6, 3), (30, 3, 0.05, 5), (8, 3, 0.0, 1)]
    for n, k, p, graph_seed in graphs:
        h = sample_hypergraph(n, k, p, graph_seed)
        lo, hi = h.codegree_extremes()
        # from lo on some subsets start at the threshold; from hi on none can drop
        for threshold in sorted({0, 1, lo - 1, lo, (lo + hi) // 2, hi, hi + 1} - {-1}):
            out = assert_scan_by_definition(h, threshold, seed)
            assert out.deleted > 0 or threshold >= lo
            assert out.deleted == 0 or threshold < hi


def test_greedy_scans_by_definition_at_benchmark_scale():
    h = sample_hypergraph(60, 3, 0.5, 2024)
    hi = h.codegree_extremes()[1]
    # from the maximum co-degree on every subset starts closed, and the first drop empties the scan
    for threshold in (21, 18, 25, 0, hi, hi + 1):
        out = assert_scan_by_definition(h, threshold, 7)
        assert (out.deleted > 0) == (threshold < hi)
        assert out.deleted < h.edge_count() or threshold == 0


@pytest.mark.parametrize("threshold", [3.0, 3.5, math.nan, math.inf])
def test_greedy_rejects_non_integer_threshold(threshold):
    with pytest.raises(TypeError):
        greedy_budget_adversary(complete(6), threshold, 0)


def test_greedy_takes_a_numpy_threshold_as_a_plain_int():
    out = greedy_budget_adversary(complete(9), np.int64(3), 77)
    assert type(out.params["threshold"]) is int
    assert out.result == greedy_budget_adversary(complete(9), 3, 77).result
    assert json.loads(json.dumps(out.to_jsonable()))["params"]["threshold"] == 3


@pytest.mark.parametrize("seed", [3, 2**63 - 1])
def test_greedy_takes_a_numpy_seed_as_a_plain_int(seed):
    h = sample_hypergraph(12, 3, 0.7, 21)
    expected = greedy_budget_adversary(h, 4, seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for wrapped in (np.int64(seed), np.uint64(seed)):
            out = greedy_budget_adversary(h, 4, wrapped)
            assert out.result == expected.result and out.deleted == expected.deleted
            assert type(out.params["seed"]) is int and out.to_jsonable() == expected.to_jsonable()
    for bad in (3.0, 1.5, "3"):
        with pytest.raises(TypeError):
            greedy_budget_adversary(h, 4, bad)


def _dense_and_sparse_graphs():
    # C(n, k-1) <= kE: subset ids are ranks; above it, index positions. The
    # sparse n = 400 graphs hold a complete K_12^(3) or K_9^(2), so some of
    # their co-degrees are far above 1
    sparse = sample_hypergraph(400, 3, 3e-5, 2).edges
    return [(sample_hypergraph(30, 3, 0.05, 5), True), (sample_hypergraph(12, 3, 0.7, 21), True),
            (sample_hypergraph(400, 3, 3e-5, 2), False),
            (Hypergraph(400, 3, list(itertools.combinations(range(12), 3)) + list(sparse)), False),
            (Hypergraph(400, 2, list(itertools.combinations(range(9), 2)) + [(10, 11), (12, 30)]), False)]


@pytest.mark.parametrize("seed", [0, 17])
def test_greedy_scans_by_definition_on_both_key_branches(seed):
    for h, dense in _dense_and_sparse_graphs():
        assert (math.comb(h.n, h.k - 1) <= h.k * h.edge_count()) == dense
        fresh = Hypergraph(h.n, h.k, h.edges)
        greedy_budget_adversary(fresh, 2, seed)
        assert (fresh._index is None) == dense  # the dense branch never builds the input's index
        hi = max(map(len, oracles.completions_by_enumeration(h.edges, h.k).values()))
        for threshold in sorted({0, 1, 2, hi // 2, hi - 1, hi}):
            assert_scan_by_definition(h, threshold, seed)


def test_greedy_deterministic_in_seed():
    h = sample_hypergraph(12, 3, 0.7, 21)
    a = greedy_budget_adversary(h, 5, 9)
    b = greedy_budget_adversary(h, 5, 9)
    assert a.result == b.result and a.deleted == b.deleted
    seen = {greedy_budget_adversary(h, 5, s).result.edges for s in range(8)}
    assert len(seen) > 1  # the scan order really depends on the seed


def _graphs_for_k_2_to_5():
    return [sample_hypergraph(12, 2, 0.5, 4), sample_hypergraph(12, 3, 0.7, 21),
            sample_hypergraph(10, 4, 0.6, 8), sample_hypergraph(9, 5, 0.6, 3)]


@pytest.mark.parametrize("size", [1, 2, 3, 7, None])
def test_greedy_scans_by_definition_in_chunks_of_every_size(monkeypatch, size):
    if size is not None:
        monkeypatch.setattr(adversary, "_SCAN_CHUNK", size)
    graphs = [h for h, _ in _dense_and_sparse_graphs()] + _graphs_for_k_2_to_5()
    for h in graphs:
        hi = max(map(len, oracles.completions_by_enumeration(h.edges, h.k).values()))
        # 2**70 is beyond int64: no co-degree reaches it, so nothing is deleted
        for threshold in sorted({0, 1, 2, hi // 2, hi - 1, hi, 2**70}):
            out = assert_scan_by_definition(h, threshold, 5)
            assert out.deleted == 0 or threshold < hi
    assert {h.k for h in graphs} == {2, 3, 4, 5}


_STAR = [(0, v) for v in range(1, 9)]  # at threshold 0 the centre's room is its 8 edges
_K6 = list(itertools.combinations(range(6), 2))  # at threshold 1 each vertex has 4 room for 5 edges
# K_4 on 1..4 and its edges to 0: rooms 3 (vertex 0) and 4 (vertices 1-4) less the threshold
_STAR_ON_K4 = sorted({(0, v) for v in range(1, 5)} | set(itertools.combinations(range(1, 5), 2)))


@pytest.mark.parametrize("n,edges,threshold,size,situations", [
    (9, _STAR, 0, 8, {"cold, closed by its last edge", "no hot edge"}),
    (400, _STAR, 0, 8, {"cold, closed by its last edge", "no hot edge"}),  # index positions as ids
    (6, _K6, 1, 15, {"hot by one", "every edge hot"}),
    (6, _K6, 1, 7, {"cold, closed by its last edge", "no hot edge", "hot by one", "every edge hot"}),
    (5, _STAR_ON_K4, 1, 4, {"cold, closed by its last edge", "no hot edge", "hot by one", "every edge hot"}),
    (5, _STAR_ON_K4, 2, 2, {"cold, closed by its last edge", "no hot edge", "hot by one", "every edge hot"}),
    (5, _STAR_ON_K4, 2, 7, {"cold, closed by its last edge", "hot by one", "every edge hot"}),
])
def test_greedy_chunks_built_for_each_case(monkeypatch, n, edges, threshold, size, situations):
    monkeypatch.setattr(adversary, "_SCAN_CHUNK", size)
    h = Hypergraph(n, 2, edges)
    assert len(h._subset_ids()[1]) // 8 <= size  # the chunk is size edges long
    assert oracles.greedy_chunk_situations(h.edges, threshold, 3, size) == situations
    assert_scan_by_definition(h, threshold, 3)


@pytest.mark.parametrize("size", [1, 2, 3, 7, None])
def test_greedy_on_the_empty_graph(monkeypatch, size):
    if size is not None:
        monkeypatch.setattr(adversary, "_SCAN_CHUNK", size)
    for n, k in ((6, 3), (400, 2), (9, 5)):
        for threshold in (0, 2**70):
            out = greedy_budget_adversary(Hypergraph(n, k, []), threshold, 1)
            assert out.result.edges == () and out.deleted == 0 and out.residual_min_codegree == 0


def test_greedy_scans_by_definition_across_many_default_chunks():
    # beyond brute-force size: ~84k edges, C(120, 2) = 7,140 subsets, 1,024-edge chunks
    h = sample_hypergraph(120, 3, 0.3, 4)
    assert h.edge_count() > 40 * max(adversary._SCAN_CHUNK, math.comb(120, 2) // 8)
    out = assert_scan_by_definition(h, 13, 11)
    assert 0 < out.deleted < h.edge_count()


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_greedy_on_one_edge_deletes_it_at_threshold_zero_only(k):
    # each subset's co-degree is E = 1, the largest any threshold is held against
    h = Hypergraph(k + 1, k, [tuple(range(k))])
    for threshold in (0, 1, 2, 2**63, 2**70):
        out = assert_scan_by_definition(h, threshold, 0)
        assert out.deleted == (threshold == 0)
