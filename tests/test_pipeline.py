import itertools
import math
import tracemalloc

import pytest

from hypermatch import (
    STRATEGY_FULL,
    STRATEGY_PI1,
    BalancedPartition,
    Hypergraph,
    PermutationFamily,
    PipelineConfig,
    auxiliary_graph,
    check_perfect_matching,
    find_matching_permutations,
    find_perfect_matching,
    greedy_budget_adversary,
    induce_partite,
    matching_to_edges,
    max_matching,
    parity_adversary,
    partition_tolerance,
    sample_balanced_partition,
    sample_hypergraph,
)
from hypermatch import bipartite, pipeline, rng
from hypermatch.rng import MASK64, substream
import oracles


PARTS6 = BalancedPartition([(0, 1), (2, 3), (4, 5)])


def complete(n, k=3):
    return Hypergraph(n, k, oracles.complete_edges(n, k))


def two_disjoint():
    return induce_partite(Hypergraph(6, 3, [(0, 2, 4), (1, 3, 5)]), PARTS6)


def test_auxiliary_identity_two_disjoint_edges():
    hp = two_disjoint()
    b = auxiliary_graph(hp, PermutationFamily(hp.parts[:-1]))
    assert b.adjacency == ((0,), (1,))


def test_auxiliary_swapped_first_permutation():
    hp = two_disjoint()
    swapped = PermutationFamily(((1, 0), (2, 3)))
    b = auxiliary_graph(hp, swapped)
    assert b.adjacency == ((), ())


def test_auxiliary_all_transversals_complete():
    hp = induce_partite(complete(6), PARTS6)
    for first in ((0, 1), (1, 0)):
        for second in ((2, 3), (3, 2)):
            b = auxiliary_graph(hp, PermutationFamily((first, second)))
            assert b.adjacency == ((0, 1), (0, 1))


def test_auxiliary_rejects_non_bijection():
    hp = two_disjoint()
    with pytest.raises(ValueError):
        auxiliary_graph(hp, PermutationFamily(((0, 0), (2, 3))))
    with pytest.raises(ValueError):
        auxiliary_graph(hp, PermutationFamily(((0, 1),)))


@pytest.mark.parametrize("seed", range(4))
def test_auxiliary_edge_count_identity_family(seed):
    h = sample_hypergraph(12, 3, 0.5, seed)
    p = BalancedPartition([range(0, 4), range(4, 8), range(8, 12)])
    hp = induce_partite(h, p)
    b = auxiliary_graph(hp, PermutationFamily(hp.parts[:-1]))
    expected = sum(
        1
        for i in range(4)
        for v in p.parts[2]
        if hp.hypergraph.has_edge((p.parts[0][i], p.parts[1][i], v))
    )
    assert b.edge_count() == expected


@pytest.mark.parametrize("n,k", [(12, 3), (12, 4), (8, 2), (130, 2), (256, 2)])
def test_auxiliary_rows_match_definition(n, k):
    h = sample_hypergraph(n, k, 0.6, n + k)
    m = n // k
    p = BalancedPartition([range(j * m, (j + 1) * m) for j in range(k)])
    hp = induce_partite(h, p)
    for seed in range(3):
        fam = _random_family(hp, seed)
        expected = tuple(
            tuple(j for j, v in enumerate(p.parts[-1])
                  if h.has_edge([perm[i] for perm in fam.maps] + [v]))
            for i in range(m))
        assert auxiliary_graph(hp, fam).adjacency == expected


@pytest.mark.parametrize("seed", range(4))
def test_auxiliary_row_degrees_at_least_dstar(seed):
    h = sample_hypergraph(12, 3, 0.7, seed)
    p = BalancedPartition([range(0, 4), range(4, 8), range(8, 12)])
    hp = induce_partite(h, p)
    dstar = hp.min_transversal_codegree()
    for s in range(3):
        fam = PermutationFamily(hp.parts[:-1]) if s == 0 else _random_family(hp, s)
        b = auxiliary_graph(hp, fam)
        assert all(len(row) >= dstar for row in b.adjacency)


def _random_family(hp, seed):
    from hypermatch.rng import Rng

    rng = Rng(seed)
    maps = []
    for part in hp.parts[:-1]:
        perm = list(part)
        rng.shuffle(perm)
        maps.append(tuple(perm))
    return PermutationFamily(tuple(maps))


def test_translation_two_disjoint():
    hp = two_disjoint()
    search = find_matching_permutations(hp, 0.1, None, 5, 0)
    assert search.success
    edges = matching_to_edges(hp, search.family, search.matching)
    assert edges == ((0, 2, 4), (1, 3, 5))


def test_translation_rejects_partial():
    hp = two_disjoint()
    from hypermatch.bipartite import BipartiteMatching

    with pytest.raises(ValueError):
        matching_to_edges(hp, PermutationFamily(hp.parts[:-1]), BipartiteMatching((0, -1)))


def test_find_permutations_all_transversals_first_attempt():
    hp = induce_partite(complete(6), PARTS6)
    for seed in range(5):
        search = find_matching_permutations(hp, 0.2, 1.0, 10, seed)
        assert search.success and search.attempts == 1
        assert search.min_degree == 2
        assert search.degree_target == pytest.approx((0.5 + 0.1) * 2 * 1.0)


def test_find_permutations_zero_edges_exhausts_budget():
    hp = induce_partite(Hypergraph(6, 3, []), PARTS6)
    search = find_matching_permutations(hp, 0.2, 0.5, 7, 3)
    assert not search.success and search.attempts == 7
    cert = search.certificate
    assert cert is not None
    assert set(cert.members) == {0, 1} and cert.neighborhood == ()


def test_find_permutations_strategies():
    h = sample_hypergraph(12, 3, 0.8, 5)
    p = BalancedPartition([range(0, 4), range(4, 8), range(8, 12)])
    hp = induce_partite(h, p)
    pi1 = find_matching_permutations(hp, 0.2, 0.8, 50, 9, STRATEGY_PI1)
    assert pi1.success
    assert pi1.family.maps[1] == hp.parts[1]  # identity kept on later parts
    full = find_matching_permutations(hp, 0.2, 0.8, 50, 9, STRATEGY_FULL)
    assert full.success
    with pytest.raises(ValueError):
        find_matching_permutations(hp, 0.2, 0.8, 0, 9)
    with pytest.raises(ValueError):
        find_matching_permutations(hp, 0.2, 0.8, 5, 9, "sideways")


# (n, k, p, graph seed, partition seed) of the pi-search differential graphs
DIFFERENTIAL_GRAPHS = [(9, 3, 0.5, 1, 1), (9, 3, 0.5, 9, 9), (9, 3, 0.5, 3, 3),
                       (8, 4, 0.6, 1, 1), (8, 4, 0.6, 0, 0), (8, 2, 0.45, 0, 0)]


def _differential_partite(n, k, p, graph_seed, partition_seed):
    return induce_partite(sample_hypergraph(n, k, p, graph_seed), sample_balanced_partition(n, k, partition_seed))


@pytest.mark.parametrize("strategy", pipeline.STRATEGIES)
@pytest.mark.parametrize("graph", DIFFERENTIAL_GRAPHS)
def test_pi_search_matches_one_at_a_time_loop(graph, strategy):
    hp = _differential_partite(*graph)
    for budget in (1, 2, 3, 4, 7, 8, 9, 2000):
        expected = oracles.pi_search_one_at_a_time(hp, 0.2, graph[2], budget, 7, strategy)
        assert find_matching_permutations(hp, 0.2, graph[2], budget, 7, strategy) == expected


def test_pi_search_differential_covers_block_edges_and_insides():
    # attempt of the first success (pi1-only, full-random) at pi seed 7 and
    # budget 40: block edges 1, 2, 3, 4, 7 and 8, inside 13, never (40)
    firsts = [tuple(oracles.pi_search_one_at_a_time(_differential_partite(*graph), 0.2, graph[2], 40, 7, s).attempts
                    for s in pipeline.STRATEGIES) for graph in DIFFERENTIAL_GRAPHS]
    assert firsts == [(8, 13), (7, 8), (2, 3), (2, 4), (1, 3), (40, 40)]


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("strategy", pipeline.STRATEGIES)
def test_pi_search_parity_graph_matches_one_at_a_time_loop(k, strategy):
    hp = induce_partite(parity_adversary(complete(4 * k, k)).result, sample_balanced_partition(4 * k, k, 2))
    for budget in (9, 2000):
        expected = oracles.pi_search_one_at_a_time(hp, 0.2, 1.0, budget, 3, strategy)
        assert not expected.success
        assert find_matching_permutations(hp, 0.2, 1.0, budget, 3, strategy) == expected


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("strategy", pipeline.STRATEGIES)
def test_block_draws_equal_scalar_families(k, strategy):
    hp = _differential_partite(5 * k, k, 0.5, k, k)
    shuffles = k - 1 if strategy == STRATEGY_FULL else 1
    drawn = [pipeline._family_at(hp, local) for local in pipeline._drawn_positions(hp.m, shuffles, 11, 300)]
    assert drawn == [oracles.family_one_at_a_time(hp, 11, t, strategy) for t in range(1, 301)]


def test_block_draws_equal_scalar_families_across_capped_blocks():
    """Blocks stop doubling at 1,024 attempts: 512-1023, 1024-2047, 2048-3071."""
    hp = _differential_partite(6, 3, 0.5, 1, 1)
    drawn = [pipeline._family_at(hp, local) for local in pipeline._drawn_positions(hp.m, 2, 5, 2100)]
    for t in itertools.chain(range(1000, 1050), range(2030, 2101)):
        assert drawn[t - 1] == oracles.family_one_at_a_time(hp, 5, t, STRATEGY_FULL)


def test_block_draw_memory_does_not_grow_with_budget():
    def peak(budget):
        tracemalloc.start()
        for _ in pipeline._drawn_positions(20, 2, 3, budget):
            pass
        size = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return size

    assert peak(2**16) < 2 * peak(2000)


@pytest.mark.parametrize("strategy", pipeline.STRATEGIES)
def test_pi_search_runs_hopcroft_karp_once(monkeypatch, strategy):
    """Attempts are decided on bitmasks; Hopcroft-Karp runs only on the
    winner, or on the last attempt of a failed search."""
    calls = []

    def counting(graph):
        calls.append(graph)
        return max_matching(graph)

    monkeypatch.setattr(pipeline, "max_matching", counting)
    monkeypatch.setattr(bipartite, "max_matching", counting)  # hall_certificate's default
    failing = induce_partite(parity_adversary(complete(12)).result, sample_balanced_partition(12, 3, 2))
    for budget in (1, 9, 300):
        calls.clear()
        assert not find_matching_permutations(failing, 0.2, 1.0, budget, 4, strategy).success
        assert len(calls) == 1
    graph = DIFFERENTIAL_GRAPHS[0]
    calls.clear()
    search = find_matching_permutations(_differential_partite(*graph), 0.2, graph[2], 40, 7, strategy)
    assert search.success and search.attempts > 1 and len(calls) == 1


# MASK64 - 3 is the least word the fallback rule rejects at m = 4
@pytest.mark.parametrize("rejected,word", [([2], MASK64 - 3), ([0, 1, 2, 3], MASK64)])
def test_rejected_block_rows_are_redrawn_by_rng(monkeypatch, rejected, word):
    """Rows of the block of attempts 4-7 that hold a word Rng.below may
    reject are redrawn one at a time, to the same families as before."""
    hp = induce_partite(parity_adversary(complete(12)).result, sample_balanced_partition(12, 3, 2))
    assert hp.m == 4
    block_sizes, redraws = [], []
    unpatched = rng.u64_blocks

    def near_top(keys, count, start=0):
        words = unpatched(keys, count, start)
        if len(keys) == 4:
            words[rejected, -1] = word
        block_sizes.append(len(keys))
        return words

    class CountingRng(rng.Rng):
        def __init__(self, key):
            super().__init__(key)
            redraws.append(key)

    monkeypatch.setattr(rng, "u64_blocks", near_top)
    monkeypatch.setattr(rng, "Rng", CountingRng)
    for strategy in pipeline.STRATEGIES:
        block_sizes.clear()
        redraws.clear()
        shuffles = 2 if strategy == STRATEGY_FULL else 1
        drawn = [pipeline._family_at(hp, local) for local in pipeline._drawn_positions(hp.m, shuffles, 4, 9)]
        assert drawn == [oracles.family_one_at_a_time(hp, 4, t, strategy) for t in range(1, 10)]
        assert block_sizes == [1, 2, 4, 2]
        assert redraws == [substream(4, 4 + r) for r in rejected]
        # the parity graph never succeeds, so the search tries every attempt
        expected = oracles.pi_search_one_at_a_time(hp, 0.2, 1.0, 9, 4, strategy)
        assert find_matching_permutations(hp, 0.2, 1.0, 9, 4, strategy) == expected


def test_alpha_derivation():
    assert partition_tolerance(0.2) == pytest.approx(1 / 7)
    for eps in (0.05, 0.1, 0.2, 0.5, 1.0):
        alpha = partition_tolerance(eps)
        # the defining inequality holds with equality
        assert (1 - alpha) * (0.5 + eps) == pytest.approx(0.5 + eps / 2)


def test_pipeline_complete_k6():
    outcome = find_perfect_matching(complete(6), 0.1, seed=4)
    assert outcome.matched and outcome.verified
    assert check_perfect_matching(complete(6), outcome.matching).ok
    assert outcome.failure_stage is None
    assert outcome.alpha == pytest.approx(0.1 / 1.2)


def test_pipeline_parity_input_fails_with_certificate():
    residual = parity_adversary(complete(6)).result
    outcome = find_perfect_matching(residual, 0.1, seed=4)
    assert not outcome.matched
    assert outcome.failure_stage == "pi-search"
    assert outcome.certificate is not None
    assert len(outcome.certificate.neighborhood) < len(outcome.certificate.members)


def test_pipeline_rejects_bad_inputs():
    with pytest.raises(ValueError):
        find_perfect_matching(Hypergraph(7, 3, [(0, 1, 2)]), 0.1)
    for eps in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            find_perfect_matching(complete(6), eps)
    with pytest.raises(ValueError):
        find_perfect_matching(complete(6), 0.1, PipelineConfig(partition_retries=0))


def test_pipeline_deterministic():
    h = sample_hypergraph(12, 3, 0.7, 40)
    a = find_perfect_matching(h, 0.2, seed=11)
    b = find_perfect_matching(h, 0.2, seed=11)
    assert a.matching == b.matching
    assert a.partition_worst_deviation == b.partition_worst_deviation


@pytest.mark.parametrize("seed", range(8))
def test_pipeline_translation_soundness(seed):
    h = sample_hypergraph(12, 3, 0.7, seed)
    outcome = find_perfect_matching(h, 0.2, seed=seed + 1)
    if outcome.matched:
        assert outcome.verified
        assert check_perfect_matching(h, outcome.matching).ok


def test_pipeline_k2_graph_case():
    # k = 2 reduces to ordinary bipartite matching on the two parts
    h = complete(8, 2)
    outcome = find_perfect_matching(h, 0.3, seed=2)
    assert outcome.matched
    assert check_perfect_matching(h, outcome.matching).ok


def test_pipeline_reports_best_effort_partition():
    # the tiny complete instance can never pass the split check, yet matches
    outcome = find_perfect_matching(complete(6), 0.2, PipelineConfig(partition_retries=5), seed=0)
    assert not outcome.partition_passed
    assert outcome.partition_attempts == 5
    assert outcome.partition_worst_deviation > partition_tolerance(0.2)
    assert outcome.matched


def _one_at_a_time(scored, alpha):
    """(attempts, passed, best deviation, best partition) of the retry rule
    over (deviation, candidate) pairs, one candidate at a time."""
    best = None
    for attempt, (deviation, candidate) in enumerate(scored, 1):
        if best is None or deviation < best[0]:
            best = (deviation, candidate)
        if deviation <= alpha:
            return (attempt, True) + best
    return (len(scored), False) + best


@pytest.mark.parametrize("where", ["inside-block", "never", "first"])
def test_partition_retries_match_one_at_a_time_loop(where, monkeypatch):
    h, seed, retries = sample_hypergraph(30, 2, 0.8, 3), 5, 20
    candidates = [sample_balanced_partition(30, 2, substream(substream(seed, 1), r)) for r in range(retries)]
    scored = [(oracles.worst_deviation_by_recount(h.edges, 2, c.assignment), c) for c in candidates]
    best_so_far = list(itertools.accumulate((d for d, _ in scored), min))
    block = max(1, 64 // h.codegree_extremes()[1].bit_length() // h.k)
    if where == "inside-block":
        # a new best strictly inside a block, so later candidates of that
        # block are scored too; alpha lands between it and every earlier one
        r = next(r for r in range(1, retries)
                 if 0 < r % block < block - 1 and best_so_far[r] < best_so_far[r - 1])
        alpha, attempts = (best_so_far[r] + best_so_far[r - 1]) / 2, r + 1
    elif where == "never":
        alpha, attempts = best_so_far[-1] / 2, retries
    else:
        alpha, attempts = 0.49, 1
    eps = alpha / (1 - 2 * alpha)
    expected = _one_at_a_time(scored, partition_tolerance(eps))
    assert expected[:2] == (attempts, where != "never")
    chosen = []

    def induce_and_record(hypergraph, partition):
        chosen.append(partition)
        return induce_partite(hypergraph, partition)

    monkeypatch.setattr(pipeline, "induce_partite", induce_and_record)
    outcome = find_perfect_matching(h, eps, PipelineConfig(partition_retries=retries), seed=seed)
    assert (outcome.partition_attempts, outcome.partition_passed,
            outcome.partition_worst_deviation, chosen[0]) == expected


def test_hall_equivalence_exhaustive_m2():
    # quick slice of the acceptance criterion: all 16 graphs on 2 + 2 vertices
    from hypermatch import BipartiteGraph

    for code in range(16):
        adj = oracles.graph_from_bitmask(2, code)
        exists = oracles.perfect_matching_exists(adj)
        assert exists == oracles.hall_conditions_hold(adj)
        assert exists == max_matching(BipartiteGraph(2, adj)).is_perfect()


@pytest.mark.parametrize("strategy", [STRATEGY_PI1, STRATEGY_FULL])
def test_pipeline_builds_no_index(strategy, monkeypatch):
    # delta* and the pi-search read the restriction's row table; the only
    # co-degree indexes are those of the graphs handed in
    sampled = sample_hypergraph(24, 3, 0.6, 11)
    graphs = {"none": sampled, "greedy": greedy_budget_adversary(sampled, 3, 1).result,
              "parity": parity_adversary(sampled).result}
    builds = []
    finish_init = Hypergraph._finish_init

    def counted(self, *args):
        builds.append(args[:2])
        finish_init(self, *args)

    monkeypatch.setattr(Hypergraph, "_finish_init", counted)
    outcomes = {name: find_perfect_matching(h, 0.2, PipelineConfig(pi_budget=30, strategy=strategy), seed=4)
                for name, h in graphs.items()}
    assert builds == []
    assert outcomes["none"].matched and not outcomes["parity"].matched
    assert outcomes["parity"].min_transversal_codegree == 0
