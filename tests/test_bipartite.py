import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypermatch import BipartiteGraph, hall_certificate, max_matching
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


def test_matching_complete():
    g = BipartiteGraph(3, [[0, 1, 2]] * 3)
    mm = max_matching(g)
    assert mm.size == 3 and mm.is_perfect()
    # matched pairs really are edges and rights are distinct
    rights = [v for _, v in mm.pairs()]
    assert len(set(rights)) == 3
    for u, v in mm.pairs():
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
    rights = [v for _, v in mm.pairs()]
    assert len(set(rights)) == len(rights)
    for u, v in mm.pairs():
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
