import itertools
import math

import numpy as np
import pytest

from hypermatch import BipartiteGraph, is_pseudorandom, max_matching
from hypermatch.rng import substream

import oracles


def definition_oracle(graph, eps, p):
    """The three properties straight from the definition, both orientations,
    every (X, Y) pair enumerated."""
    m = graph.m
    threshold = (0.5 + eps) * m * p
    if m and graph.min_degree() < threshold:
        return False
    rows = [set(r) for r in graph.adjacency]
    cols = [set(r) for r in graph.reverse().adjacency]
    for side in (rows, cols):
        for x in range(1, m + 1):
            y = x - 1
            in2 = 10 * y <= m
            in3 = 10 * y >= m and 2 * y <= m
            if not (in2 or in3):
                continue
            for group in itertools.combinations(range(m), x):
                for other in itertools.combinations(range(m), y):
                    crossing = sum(len(side[u] & set(other)) for u in group)
                    if in2 and crossing > m * p * x / 2:
                        return False
                    if in3 and crossing > (0.5 + eps / 2) * m * p * x:
                        return False
    return True


def test_complete_graph_is_pseudorandom():
    for m in (0, 4, 8, 10):
        g = BipartiteGraph(m, [list(range(m))] * m)
        for mode in ("exact", "sampled"):
            verdict = is_pseudorandom(g, 0.25, 1.0, mode, seed=3, trials=20)
            assert verdict.pseudorandom and verdict.failed_property is None and verdict.mode == mode


def test_empty_graph_fails_degree():
    g = BipartiteGraph(4, [[]] * 4)
    verdict = is_pseudorandom(g, 0.1, 0.5)
    assert not verdict.pseudorandom
    assert verdict.failed_property == 1
    assert verdict.witness == (0, 0)


def test_property_two_witness_construction():
    # rows 0..1 adjacent to right 0 only, everything else complete:
    # degrees pass at m*p = 1.2, but e({0,1}, {0}) = 2 > m*p*2/2 = 1.2
    m, x = 12, 2
    rows = [[0] if u < x else list(range(m)) for u in range(m)]
    g = BipartiteGraph(m, rows)
    verdict = is_pseudorandom(g, 0.1, 0.1)
    assert not verdict.pseudorandom and verdict.failed_property == 2
    members, chosen, count = verdict.witness
    assert members == (0, 1) and chosen == (0,) and count == 2
    assert verdict.witness_side == "left"


def test_witness_recomputes_as_violation():
    checked = 0
    for i in range(300):
        m = 4 + i % 5
        p = (0.4, 0.6, 0.8)[i % 3]
        g = oracles.random_bipartite(m, p, substream(31337, i))
        verdict = is_pseudorandom(g, 0.2, p)
        if verdict.pseudorandom or verdict.failed_property == 1:
            if verdict.failed_property == 1:
                vertex, degree = verdict.witness
                degs = g.left_degrees() if verdict.witness_side == "left" else g.right_degrees()
                assert degs[vertex] == degree
                assert degree < (0.5 + 0.2) * m * p
                checked += 1
            continue
        members, chosen, count = verdict.witness
        rows = g.adjacency if verdict.witness_side == "left" else g.reverse().adjacency
        recount = sum(len(set(rows[u]) & set(chosen)) for u in members)
        assert recount == count
        x = len(members)
        assert len(chosen) == x - 1
        if verdict.failed_property == 2:
            assert count > m * p * x / 2
        else:
            assert count > (0.5 + 0.2 / 2) * m * p * x
        checked += 1
    assert checked > 100


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_exact_matches_definition_oracle(m):
    cases = 0
    for p in (0.5, 0.8, 1.0):
        if m * p < 1:
            continue
        for eps in (0.1, 0.4):
            for t in range(30):
                g = oracles.random_bipartite(m, p, substream(808, cases))
                cases += 1
                assert is_pseudorandom(g, eps, p).pseudorandom == definition_oracle(g, eps, p)


def test_exact_mode_size_limit():
    g = BipartiteGraph(17, [[0]] * 17)
    with pytest.raises(ValueError):
        is_pseudorandom(g, 0.1, 0.5)


@pytest.mark.parametrize("eps, p", [
    (math.nan, 0.5), (math.inf, 0.5), (-math.inf, 0.5), (0.1, math.nan), (0.1, math.inf), (0.1, 1.5), (0.1, -0.5)])
@pytest.mark.parametrize("mode", ["exact", "sampled"])
def test_non_finite_eps_and_bad_density_rejected(eps, p, mode):
    # the empty graph has no perfect matching: no verdict may call it pseudorandom
    g = BipartiteGraph(3, [[], [], []])
    with pytest.raises(ValueError):
        is_pseudorandom(g, eps, p, mode, seed=1, trials=5)


def test_sampled_mode_validation():
    g = BipartiteGraph(4, [list(range(4))] * 4)
    with pytest.raises(ValueError):
        is_pseudorandom(g, 0.1, 1.0, mode="sampled")
    with pytest.raises(ValueError):
        is_pseudorandom(g, 0.1, 1.0, mode="bogus")


@pytest.mark.parametrize("trials", [2.5, 3.0, "3"])
def test_sampled_mode_trials_must_be_an_integer(trials):
    g = BipartiteGraph(4, [list(range(4))] * 4)
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        is_pseudorandom(g, 0.1, 1.0, mode="sampled", seed=1, trials=trials)


def test_sampled_mode_takes_numpy_int_trials():
    g = BipartiteGraph(10, [[0]] * 10)
    assert is_pseudorandom(g, 0.3, 0.4, mode="sampled", seed=5, trials=np.int64(200)) == \
        is_pseudorandom(g, 0.3, 0.4, mode="sampled", seed=5, trials=200)


def test_sampled_mode_finds_gross_violations():
    # all rows adjacent only to right 0: huge property-2 violation at X = any pair
    m = 10
    g = BipartiteGraph(m, [[0]] * m)
    verdict = is_pseudorandom(g, 0.3, 0.4, mode="sampled", seed=5, trials=200)
    assert not verdict.pseudorandom
    assert verdict.mode == "sampled"
    if verdict.failed_property in (2, 3):
        members, chosen, count = verdict.witness
        assert count > 0


def test_sampled_mode_never_contradicts_exact_acceptance():
    # one-sided: sampled may miss violations but must not invent them
    for i in range(80):
        g = oracles.random_bipartite(8, 0.9, substream(606, i))
        exact = is_pseudorandom(g, 0.1, 0.9)
        sampled = is_pseudorandom(g, 0.1, 0.9, mode="sampled", seed=i, trials=60)
        if exact.pseudorandom:
            assert sampled.pseudorandom


@pytest.mark.slow
def test_pseudorandom_implies_perfect_matching_up_to_16():
    """Accepted graphs always have a perfect matching; 10^4 seeded graphs
    with m up to 16, exact mode, valid regime (m*p >= 2, eps <= 1/2)."""
    sizes = list(range(2, 17))
    densities = (0.3, 0.5, 0.75, 1.0)
    epsilons = (0.1, 0.3, 0.5)
    accepted = 0
    total = 0
    i = 0
    while total < 10_000:
        m = sizes[i % len(sizes)]
        p = densities[i % len(densities)]
        eps = epsilons[i % len(epsilons)]
        i += 1
        if m * p < 2:
            continue
        total += 1
        g = oracles.random_bipartite(m, p, substream(160_000, i))
        verdict = is_pseudorandom(g, eps, p)
        if verdict.pseudorandom:
            accepted += 1
            mm = max_matching(g)
            assert mm.is_perfect(), (m, p, eps, g.adjacency)
    assert accepted > 100
