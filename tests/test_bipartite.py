import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypermatch import (
    BipartiteGraph,
    BipartiteMatching,
    hall_certificate,
    induce_partite,
    max_matching,
    parity_adversary,
    pipeline,
    sample_balanced_partition,
    sample_hypergraph,
)
from hypermatch.bipartite import _is_perfect
from hypermatch.rng import substream

import oracles


def test_graph_normalizes_rows():
    g = BipartiteGraph(3, [[2, 0, 2], [], [1]])
    assert g.adjacency == ((0, 2), (), (1,))
    assert g.edge_count() == 3
    assert g.right_degrees() == (1, 1, 1)
    assert g.reverse().adjacency == ((0,), (2,), (0,))


def test_graph_rejects_bad_shape():
    with pytest.raises(ValueError):
        BipartiteGraph(2, [[0]])
    with pytest.raises(ValueError):
        BipartiteGraph(2, [[0], [2]])


@pytest.mark.parametrize("row", [[1.9], [0.2], ["1"]])
def test_graph_rejects_non_integer_ids(row):
    with pytest.raises(TypeError):
        BipartiteGraph(2, [row, [0]])


def test_graph_accepts_numpy_ints_and_bools():
    g = BipartiteGraph(2, [[np.int64(1), np.uint8(0)], [True]])
    assert g.adjacency == ((0, 1), (1,))
    assert all(type(v) is int for row in g.adjacency for v in row)


def test_graph_size_is_an_integer():
    # m sizes the matcher's per-vertex lists, so only an integer m constructs
    with pytest.raises(TypeError):
        BipartiteGraph(2.0, [[0], [1]])
    g = BipartiteGraph(np.int64(2), [[0], [1]])
    assert type(g.m) is int and max_matching(g).is_perfect()


def test_matching_complete():
    g = BipartiteGraph(3, [[0, 1, 2]] * 3)
    mm = max_matching(g)
    assert mm.size == 3 and mm.is_perfect()
    # matched pairs really are edges and rights are distinct
    pairs = [(u, v) for u, v in enumerate(mm.row_to_right) if v != -1]
    rights = [v for _, v in pairs]
    assert len(set(rights)) == 3
    for u, v in pairs:
        assert v in g.adjacency[u]


def test_matching_bottleneck():
    g = BipartiteGraph(2, [[0], [0]])
    assert max_matching(g).size == 1


def test_matching_empty():
    g = BipartiteGraph(3, [[], [], []])
    assert max_matching(g).size == 0
    assert max_matching(BipartiteGraph(0, [])).is_perfect()


def test_matching_deterministic():
    g = oracles.random_bipartite(7, 0.4, 99)
    assert max_matching(g).row_to_right == max_matching(g).row_to_right


@pytest.mark.parametrize("density", [0.2, 0.5, 0.8])
def test_matching_equals_exhaustive_oracle(density):
    for i in range(120):
        m = 2 + i % 7
        g = oracles.random_bipartite(m, density, substream(4242, i * 10 + int(density * 10)))
        assert max_matching(g).size == oracles.exhaustive_max_matching(g.adjacency)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2**30))
def test_matching_is_valid_matching(m, seed):
    g = oracles.random_bipartite(m, 0.5, seed)
    mm = max_matching(g)
    pairs = [(u, v) for u, v in enumerate(mm.row_to_right) if v != -1]
    rights = [v for _, v in pairs]
    assert len(set(rights)) == len(rights)
    for u, v in pairs:
        assert v in g.adjacency[u]


# -- Hall certificates -----------------------------------------------------------


def test_certificate_two_rows_one_right():
    g = BipartiteGraph(2, [[0], [0]])
    cert = hall_certificate(g)
    assert len(cert.neighborhood) < len(cert.members)
    if cert.side == "left":
        assert cert.members == (0, 1) and cert.neighborhood == (0,)
    else:
        # right vertex 1 has no neighbors: an even smaller violator
        assert cert.members == (1,) and cert.neighborhood == ()


def test_certificate_single_vertex_no_edges():
    cert = hall_certificate(BipartiteGraph(1, [[]]))
    assert cert.members == (0,) and cert.neighborhood == ()
    assert cert.side == "left"


def test_certificate_left_side_when_smaller():
    # left vertex 3 isolated; every right vertex has degree >= 1
    g = BipartiteGraph(4, [[0, 1, 2, 3], [0, 1, 2, 3], [0, 1, 2, 3], []])
    cert = hall_certificate(g)
    assert cert.side == "left" and cert.members == (3,) and cert.neighborhood == ()


def test_certificate_rejects_perfect():
    g = BipartiteGraph(2, [[0], [1]])
    with pytest.raises(ValueError):
        hall_certificate(g)


@pytest.mark.parametrize("rows, matching, message", [
    ([[0], [0]], (0, 0), "not a matching"),  # a right vertex matched twice
    ([[0], [0]], (0,), "not a matching"),  # too few rows
    ([[0], [0]], (1, -1), "not a matching"),  # a non-edge
    ([[0], [1]], (-1, -1), "not maximum"),
    ([[0, 1], [0], [0]], (-1, 0, -1), "not maximum"),  # no perfect matching, size 1 of 2
])
def test_certificate_checks_a_supplied_matching(rows, matching, message):
    with pytest.raises(ValueError, match=message):
        hall_certificate(BipartiteGraph(len(rows), rows), BipartiteMatching(matching))


def test_certificate_recomputes_on_seeded_graphs():
    found = 0
    for i in range(400):
        m = 2 + i % 6
        g = oracles.random_bipartite(m, 0.3, substream(777, i))
        mm = max_matching(g)
        if mm.is_perfect():
            continue
        found += 1
        cert = hall_certificate(g, mm)
        rows = g.adjacency if cert.side == "left" else g.reverse().adjacency
        recomputed = sorted(set().union(*(set(rows[u]) for u in cert.members)))
        assert tuple(recomputed) == cert.neighborhood
        assert len(cert.neighborhood) <= len(cert.members) - 1
    assert found > 50


def test_matching_long_chain_has_no_recursion_limit():
    # rows {u, u+1}, last row {0}: the only perfect matching shifts every
    # row by one, and the first phases grow augmenting paths of length ~m
    m = 3000
    g = BipartiteGraph(m, [[u, u + 1] for u in range(m - 1)] + [[0]])
    mm = max_matching(g)
    assert mm.is_perfect()
    assert mm.row_to_right == tuple(range(1, m)) + (0,)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 24), st.floats(0.02, 0.6), st.integers(0, 2**32))
def test_matching_equals_recursive_reference(m, density, seed):
    g = oracles.random_bipartite(m, density, seed)
    assert max_matching(g).row_to_right == oracles.recursive_hopcroft_karp(g.adjacency)


def _sparse_bipartite(m, degree, kind, seed):
    """Seeded graph with `degree` random neighbours per row. "perfect" adds
    the pairs of a random permutation; "deficient" draws the neighbours of
    the first m // 10 + 2 rows from m // 10 right vertices, a planted Hall
    violation of deficiency 2."""
    draw = np.random.default_rng(seed)
    small = m // 10 if kind == "deficient" else 0
    planted = draw.permutation(m).tolist()
    rows = []
    for u in range(m):
        pool = small if u < small + 2 else m
        rows.append(draw.choice(pool, min(degree, pool), replace=False).tolist())
        if kind == "perfect":
            rows[-1].append(planted[u])
    return BipartiteGraph(m, rows)


@pytest.mark.parametrize("m,degree,kind,seed", [
    (200, 3, "random", 1), (2000, 1, "random", 2), (2000, 3, "random", 3),
    (500, 1, "perfect", 4), (2000, 2, "perfect", 5),
    (300, 4, "deficient", 6), (2000, 3, "deficient", 7),
])
def test_matching_size_and_certificate_against_networkx_and_scipy(m, degree, kind, seed):
    nx = pytest.importorskip("networkx")
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    sparse = pytest.importorskip("scipy.sparse")
    g = _sparse_bipartite(m, degree, kind, seed)
    size = max_matching(g).size

    nxg = nx.Graph()
    nxg.add_nodes_from(range(2 * m))
    nxg.add_edges_from((u, m + v) for u, row in enumerate(g.adjacency) for v in row)
    assert size == len(nx.bipartite.hopcroft_karp_matching(nxg, top_nodes=range(m))) // 2

    rows = [u for u, row in enumerate(g.adjacency) for _ in row]
    cols = [v for row in g.adjacency for v in row]
    biadjacency = sparse.csr_array((np.ones(len(rows)), (rows, cols)), shape=(m, m))
    assert size == int((csgraph.maximum_bipartite_matching(biadjacency, perm_type="column") != -1).sum())

    assert (size == m) == (kind == "perfect")
    if kind == "deficient":
        assert size <= m - 2
    if size < m:
        cert = hall_certificate(g)
        side = g.adjacency if cert.side == "left" else g.reverse().adjacency
        neighborhood = set().union(*(side[u] for u in cert.members))
        assert len(neighborhood) < len(cert.members)
        assert len(cert.members) - len(neighborhood) == m - size  # Konig: the deficiency is exact


# -- the bitset perfect-or-not test ------------------------------------------------


def _masks(graph):
    return [sum(1 << v for v in row) for row in graph.adjacency]


def _deficient_bipartite(m, degree, seed):
    """Seeded graph of Hall deficiency exactly 1: rows 0..s-1 (s = m // 3 + 1)
    see only right vertices 0..s-2, and a planted matching covers every row
    but row 0, so the maximum matching has size m - 1."""
    draw = np.random.default_rng(seed)
    s = m // 3 + 1
    rest = (s - 1 + draw.permutation(m - s + 1)).tolist()
    rows = []
    for u in range(m):
        if u < s:
            rows.append(draw.choice(s - 1, min(degree, s - 1), replace=False).tolist() + ([u - 1] if u else []))
        else:
            rows.append(draw.choice(m, min(degree, m), replace=False).tolist() + [rest[u - s]])
    return BipartiteGraph(m, rows)


def _assert_decision_agrees(graph):
    masks = _masks(graph)
    assert BipartiteGraph._from_masks(masks) == graph
    perfect = max_matching(graph).is_perfect()
    assert _is_perfect(masks) == perfect
    return perfect


@pytest.mark.parametrize("m", [1, 2, 63, 64, 65, 80, 300])
def test_bitset_decision_equals_hopcroft_karp(m):
    outcomes = set()
    for seed in range(3):
        for i, scale in enumerate((0.5, 1.0, 2.0)):  # around the ln(m) / m threshold of a perfect matching
            density = min(1.0, scale * max(1.0, math.log(m)) / m)
            outcomes.add(_assert_decision_agrees(oracles.random_bipartite(m, density, substream(m, 3 * seed + i))))
        assert _assert_decision_agrees(_sparse_bipartite(m, 2, "perfect", seed))
        deficient = _deficient_bipartite(m, 3, seed)
        assert max_matching(deficient).size == m - 1
        assert not _assert_decision_agrees(deficient)
    if m > 2:
        assert outcomes == {True, False}


@pytest.mark.parametrize("m", [1, 2, 65])
def test_bitset_decision_empty_row_and_column(m):
    full = (1 << m) - 1
    assert _is_perfect([full] * m)
    assert not _is_perfect([full] * (m - 1) + [0])  # last row empty
    assert not _is_perfect([full >> 1] * m)  # last column empty
    assert _is_perfect([])


@pytest.mark.parametrize("n,k", [(60, 3), (130, 2)])
def test_bitset_decision_on_parity_auxiliary_graphs(n, k):
    """Parity residuals never match; their auxiliary graphs mostly miss by one row."""
    h = parity_adversary(sample_hypergraph(n, k, 0.5, n)).result
    hp = induce_partite(h, sample_balanced_partition(n, k, 1))
    table = hp._row_table()[1]
    for block in pipeline._drawn_positions(hp.m, k - 1, 5, 150):
        for index in pipeline._row_index(hp, block):
            _assert_decision_agrees(BipartiteGraph._from_masks(table[index].tolist()))
