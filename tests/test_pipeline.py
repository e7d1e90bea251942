import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest

from hypermatch import (
    STRATEGY_FULL,
    STRATEGY_PI1,
    BalancedPartition,
    Hypergraph,
    MatchingCheck,
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
from hypermatch import bipartite, pipeline, rng, sampling
from hypermatch.experiment import ExperimentConfig, derive_trial_hypergraphs, run_trial
from hypermatch.rng import MASK64, Rng, substream
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
    search = find_matching_permutations(hp, 5, 0)
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
        search = find_matching_permutations(hp, 10, seed)
        assert search.success and search.attempts == 1
        assert search.min_degree == 2


def test_pi_search_takes_no_density_hint():
    # old calls raise rather than rebind: every one passed eps and p
    with pytest.raises(TypeError):
        PipelineConfig(p=0.5)
    with pytest.raises(TypeError):
        find_matching_permutations(two_disjoint(), 0.1, None, 5, 0)


def test_find_permutations_zero_edges_exhausts_budget():
    hp = induce_partite(Hypergraph(6, 3, []), PARTS6)
    search = find_matching_permutations(hp, 7, 3)
    assert not search.success and search.attempts == 7
    cert = search.certificate
    assert cert is not None
    assert set(cert.members) == {0, 1} and cert.neighborhood == ()


def test_find_permutations_strategies():
    h = sample_hypergraph(12, 3, 0.8, 5)
    p = BalancedPartition([range(0, 4), range(4, 8), range(8, 12)])
    hp = induce_partite(h, p)
    pi1 = find_matching_permutations(hp, 50, 9, STRATEGY_PI1)
    assert pi1.success
    assert pi1.family.maps[1] == hp.parts[1]  # identity kept on later parts
    full = find_matching_permutations(hp, 50, 9, STRATEGY_FULL)
    assert full.success
    with pytest.raises(ValueError):
        find_matching_permutations(hp, 0, 9)
    with pytest.raises(ValueError):
        find_matching_permutations(hp, 5, 9, "sideways")


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
        expected = oracles.pi_search_one_at_a_time(hp, budget, 7, strategy)
        assert find_matching_permutations(hp, budget, 7, strategy) == expected


def test_pi_search_differential_covers_block_edges_and_insides():
    # attempt of the first success (pi1-only, full-random) at pi seed 7 and
    # budget 40: attempt 1 (its own block), 2 (the first screened one),
    # inside the second block at 3, 4, 7, 8 and 13, never (40)
    firsts = [tuple(oracles.pi_search_one_at_a_time(_differential_partite(*graph), 40, 7, s).attempts
                    for s in pipeline.STRATEGIES) for graph in DIFFERENTIAL_GRAPHS]
    assert firsts == [(8, 13), (7, 8), (2, 3), (2, 4), (1, 3), (40, 40)]


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("strategy", pipeline.STRATEGIES)
def test_pi_search_parity_graph_matches_one_at_a_time_loop(k, strategy):
    hp = induce_partite(parity_adversary(complete(4 * k, k)).result, sample_balanced_partition(4 * k, k, 2))
    for budget in (9, 2000):
        expected = oracles.pi_search_one_at_a_time(hp, budget, 3, strategy)
        assert not expected.success
        assert find_matching_permutations(hp, budget, 3, strategy) == expected


def _even_split_partite(n, k, p, seed, size):
    """Partite graph of the edges of H(n, k, p) meeting [0, size) an even
    number of times. With size even a perfect matching can survive while
    the row table falls into components, so the component screen passes
    some attempts and rejects others."""
    edges = sample_hypergraph(n, k, p, seed).edge_array
    kept = edges[(edges < size).sum(axis=1) % 2 == 0]
    return induce_partite(Hypergraph(n, k, kept.tolist()), sample_balanced_partition(n, k, seed))


# (n, k, p, seed, size) of _even_split_partite; size 0 keeps every edge
EVEN_SPLIT_GRAPHS = [(18, 3, 0.5, 0, 8), (18, 3, 0.3, 2, 6), (16, 4, 0.5, 0, 8), (16, 4, 0.5, 2, 8),
                     (20, 4, 0.6, 2, 10), (12, 2, 0.3, 1, 4), (12, 2, 0.35, 0, 0), (12, 3, 0.2, 1, 0),
                     (12, 3, 0.8, 3, 0)]


@pytest.mark.parametrize("strategy", pipeline.STRATEGIES)
def test_component_screen_rejects_only_graphs_without_perfect_matching(strategy):
    graphs = [_even_split_partite(*graph) for graph in EVEN_SPLIT_GRAPHS] + [
        induce_partite(parity_adversary(sample_hypergraph(n, k, 0.6, n)).result, sample_balanced_partition(n, k, n))
        for n, k in [(12, 2), (18, 3), (16, 4)]]
    rejected = kept = 0
    for hp in graphs:
        shuffles = hp.k - 1 if strategy == STRATEGY_FULL else 1
        for block in pipeline._drawn_positions(hp.m, shuffles, 5, 40):
            balanced = pipeline._balanced(hp, pipeline._row_index(hp, block))
            for b, local in enumerate(block):
                if b not in balanced:
                    graph = oracles.auxiliary_by_definition(hp, pipeline._family_at(hp, local))
                    assert not oracles.perfect_matching_exists(graph.adjacency)
                rejected += b not in balanced
                kept += b in balanced
    assert rejected > 200 and kept > 50


@pytest.mark.parametrize("strategy", pipeline.STRATEGIES)
@pytest.mark.parametrize("graph", EVEN_SPLIT_GRAPHS + [(195, 3, 0.5, 1, 64), (195, 3, 0.1, 1, 64)])
def test_pi_search_on_split_tables_matches_one_at_a_time_loop(graph, strategy):
    hp = _even_split_partite(*graph)
    for budget in (1, 2, 3, 9, 30):
        expected = oracles.pi_search_one_at_a_time(hp, budget, 3, strategy)
        assert find_matching_permutations(hp, budget, 3, strategy) == expected


def _hall_blocked_partite(k, m, density, seed):
    """Partite graph on parts [jm, (j+1)m) holding each transversal k-tuple
    with probability density, except that last-part positions 0 and 1 keep
    only the tuples whose part-0 position is 0. Each attempt has one row
    there, so no auxiliary graph has a perfect matching, yet the row table
    is one component and the component screen passes most attempts."""
    draws = Rng(seed)
    edges = [tuple(j * m + p for j, p in enumerate(positions))
             for positions in itertools.product(range(m), repeat=k)
             if (positions[-1] > 1 or positions[0] == 0) and draws.u64() < density * 2**64]
    partition = BalancedPartition([range(j * m, (j + 1) * m) for j in range(k)])
    return induce_partite(Hypergraph(k * m, k, edges), partition)


@pytest.mark.parametrize("strategy", pipeline.STRATEGIES)
@pytest.mark.parametrize("k,m", [(3, 6), (4, 4)])
def test_pi_search_on_hall_blocked_tables_matches_one_at_a_time_loop(monkeypatch, k, m, strategy):
    """Balanced attempts that all fail, decided one by one across the edge
    of the first full block (attempts 2-1025) and into the next."""
    hp = _hall_blocked_partite(k, m, 0.7, 1)
    decided = []
    unpatched = pipeline._is_perfect

    def counting_decision(masks):
        decided.append(len(masks))
        return unpatched(masks)

    monkeypatch.setattr(pipeline, "_is_perfect", counting_decision)
    for budget in (2, 1025, 1030):
        expected = oracles.pi_search_one_at_a_time(hp, budget, 3, strategy)
        assert not expected.success
        decided.clear()
        assert find_matching_permutations(hp, budget, 3, strategy) == expected
    assert len(decided) > 1030 // 2  # the screen passes most attempts


def test_pi_search_on_parity_table_with_multiword_rows_matches_one_at_a_time_loop():
    """k=3 with m=65: every attempt after the first is screened out."""
    hp = induce_partite(parity_adversary(sample_hypergraph(195, 3, 0.5, 2)).result, sample_balanced_partition(195, 3, 2))
    assert hp.m == 65
    expected = oracles.pi_search_one_at_a_time(hp, 12, 5, STRATEGY_PI1)
    assert not expected.success
    assert find_matching_permutations(hp, 12, 5, STRATEGY_PI1) == expected


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("strategy", pipeline.STRATEGIES)
def test_block_draws_equal_scalar_families(k, strategy):
    hp = _differential_partite(5 * k, k, 0.5, k, k)
    shuffles = k - 1 if strategy == STRATEGY_FULL else 1
    drawn = [pipeline._family_at(hp, local)
             for block in pipeline._drawn_positions(hp.m, shuffles, 11, 300) for local in block]
    assert drawn == [oracles.family_one_at_a_time(hp, 11, t, strategy) for t in range(1, 301)]


def test_block_draws_equal_scalar_families_across_capped_blocks():
    """After attempt 1, blocks of 1,024 attempts: 2-1025, 1026-2049, 2050-3073."""
    hp = _differential_partite(6, 3, 0.5, 1, 1)
    drawn = [pipeline._family_at(hp, local) for block in pipeline._drawn_positions(hp.m, 2, 5, 2100) for local in block]
    for t in itertools.chain(range(1000, 1050), range(2030, 2101)):
        assert drawn[t - 1] == oracles.family_one_at_a_time(hp, 5, t, STRATEGY_FULL)


@pytest.fixture(scope="module")
def parity_n60_partite():
    """The partite graph that trial 0 of the benchmark's parity-n60 config
    (n=60, p=0.5, eps=0.2, seed 2024) hands to the pi-search: m=20."""
    seen = []

    def capturing(partite, *args):
        seen.append(partite)
        return find_matching_permutations(partite, *args)

    cfg = ExperimentConfig(n=60, k=3, p=0.5, epsilon=0.2, trials=1, base_seed=2024, adversary="parity",
                           partition_retries=20, pi_budget=1, strategy=STRATEGY_FULL)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline, "find_matching_permutations", capturing)
        run_trial(cfg, 0)
    [partite] = seen
    assert partite.m == 20
    return partite


@pytest.mark.parametrize("strategy", pipeline.STRATEGIES)
def test_pi_search_matches_one_at_a_time_loop_at_benchmark_size(parity_n60_partite, strategy):
    expected = oracles.pi_search_one_at_a_time(parity_n60_partite, 2000, 7, strategy)
    assert not expected.success
    assert find_matching_permutations(parity_n60_partite, 2000, 7, strategy) == expected


def test_pi_search_matches_one_at_a_time_loop_on_two_word_rows():
    """k=2 with m=130: every row mask spans two 64-bit words."""
    hp = induce_partite(parity_adversary(sample_hypergraph(260, 2, 0.5, 3)).result,
                        sample_balanced_partition(260, 2, 3))
    assert hp.m == 130
    expected = oracles.pi_search_one_at_a_time(hp, 70, 5, STRATEGY_PI1)
    assert not expected.success
    assert find_matching_permutations(hp, 70, 5, STRATEGY_PI1) == expected


@pytest.mark.parametrize("strategy", pipeline.STRATEGIES)
def test_pi_search_loop_only_decides(monkeypatch, parity_n60_partite, strategy):
    """A 2,000-attempt parity search runs the bitset decision once, on
    attempt 1: every later attempt puts more rows in a row-table component
    than it has last-part vertices, so the component screen rejects it. The
    attempts are drawn in three blocks, and the sort shuffle runs only for
    attempt 1's, the one drawn below the block-loop crossover."""
    sorted_rows, decided, drawn = [], [], []
    unpatched_sort, unpatched_decision, unpatched_draw = rng._sort_shuffles, pipeline._is_perfect, pipeline.permutations

    def counting_sort(swaps, size):
        sorted_rows.append((len(swaps), size))
        return unpatched_sort(swaps, size)

    def counting_decision(masks):
        decided.append(len(masks))
        return unpatched_decision(masks)

    def counting_draw(keys, size, count):
        drawn.append(len(keys))
        return unpatched_draw(keys, size, count)

    monkeypatch.setattr(rng, "_sort_shuffles", counting_sort)
    monkeypatch.setattr(pipeline, "_is_perfect", counting_decision)
    monkeypatch.setattr(pipeline, "permutations", counting_draw)
    assert not find_matching_permutations(parity_n60_partite, 2000, 7, strategy).success
    assert decided == [20]
    shuffles = 2 if strategy == STRATEGY_FULL else 1
    sizes = [1, 1024, 975]  # attempt 1 alone, then full blocks
    assert drawn == sizes
    assert shuffles < rng._BLOCK_ROWS <= 975 * shuffles and sorted_rows == [(shuffles, 20)]


def test_block_draw_memory_does_not_grow_with_budget():
    def peak(budget):
        tracemalloc.start()
        for _ in pipeline._drawn_positions(20, 2, 3, budget):
            pass
        size = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return size

    assert peak(2**16) < 2 * peak(2000)


def test_partition_retry_memory_does_not_grow_with_retries():
    # retry 0 passes on the complete graph, so later retries are never drawn;
    # its index is built first, outside both windows
    h = sample_hypergraph(60, 3, 1.0, 0)
    h._indexed()

    def peak(retries):
        tracemalloc.start()
        outcome = find_perfect_matching(h, 1.0, PipelineConfig(partition_retries=retries), seed=2)
        size = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert outcome.partition_attempts == 1 and outcome.partition_passed
        return size

    assert peak(10**5) < peak(1) + 2**18


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
        assert not find_matching_permutations(failing, budget, 4, strategy).success
        assert len(calls) == 1
    graph = DIFFERENTIAL_GRAPHS[0]
    calls.clear()
    search = find_matching_permutations(_differential_partite(*graph), 40, 7, strategy)
    assert search.success and search.attempts > 1 and len(calls) == 1


# MASK64 - 3 is the least word the fallback rule rejects at m = 4
@pytest.mark.parametrize("rejected,word", [([2], MASK64 - 3), ([0, 1, 2, 3], MASK64)])
def test_rejected_block_rows_are_redrawn_by_rng(monkeypatch, rejected, word):
    """Rows of the block of attempts 2-9 that hold a word Rng.below may
    reject are redrawn one at a time, to the same families as before."""
    hp = induce_partite(parity_adversary(complete(12)).result, sample_balanced_partition(12, 3, 2))
    assert hp.m == 4
    block_sizes, redraws = [], []
    unpatched = rng.u64_blocks

    def near_top(keys, count, start=0):
        words = unpatched(keys, count, start)
        if len(keys) == 8:
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
        drawn = [pipeline._family_at(hp, local)
                 for block in pipeline._drawn_positions(hp.m, shuffles, 4, 9) for local in block]
        assert drawn == [oracles.family_one_at_a_time(hp, 4, t, strategy) for t in range(1, 10)]
        assert block_sizes == [1, 8]
        assert redraws == [substream(4, 2 + r) for r in rejected]
        # the parity graph never succeeds, so the search tries every attempt
        expected = oracles.pi_search_one_at_a_time(hp, 9, 4, strategy)
        assert find_matching_permutations(hp, 9, 4, strategy) == expected


def test_alpha_derivation():
    assert partition_tolerance(0.2) == pytest.approx(1 / 7)
    for eps in (0.05, 0.1, 0.2, 0.5, 1.0):
        alpha = partition_tolerance(eps)
        # the defining inequality holds with equality
        assert (1 - alpha) * (0.5 + eps) == pytest.approx(0.5 + eps / 2)
    # the quotient rounds to 1/2 from eps ~ 2**53; past 8.98846567431157e307, 2 * eps overflows
    for eps in (1e17, 8.98846567431157e307, 8.98846567431158e307, 1e308, sys.float_info.max):
        assert partition_tolerance(eps) == 0.5


def test_pipeline_complete_k6():
    outcome = find_perfect_matching(complete(6), 0.1, seed=4)
    assert outcome.matched and outcome.verified
    assert check_perfect_matching(complete(6), outcome.matching).ok
    assert outcome.failure_stage is None
    assert outcome.alpha == pytest.approx(0.1 / 1.2)


def test_pipeline_reports_a_rejected_matching_as_a_verification_failure(monkeypatch):
    rejected = MatchingCheck(False, "uncovered", (0,))
    monkeypatch.setattr(pipeline, "check_perfect_matching", lambda hypergraph, edges: rejected)
    outcome = find_perfect_matching(complete(6), 0.1, seed=4)
    assert outcome.matching is None and not outcome.matched and not outcome.verified
    assert outcome.failure_stage == "verification" and outcome.check is rejected
    assert outcome.certificate is None


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


def _parity_residual():
    return parity_adversary(sample_hypergraph(12, 3, 0.8, 1)).result


@pytest.mark.parametrize("bad", [2.5, math.nan, math.inf])
def test_budgets_must_be_integers(bad):
    residual = _parity_residual()
    for cfg in (PipelineConfig(partition_retries=bad), PipelineConfig(pi_budget=bad)):
        with pytest.raises(TypeError):
            find_perfect_matching(residual, 0.2, cfg, 3)
    partite = induce_partite(residual, sample_balanced_partition(12, 3, 0))
    with pytest.raises(TypeError):
        find_matching_permutations(partite, bad, 3)


def test_budgets_take_numpy_ints_as_plain_ints():
    residual = _parity_residual()
    config = PipelineConfig(pi_budget=np.int64(3), partition_retries=np.int32(2))
    outcome = find_perfect_matching(residual, 0.2, config, 3)
    assert outcome == find_perfect_matching(residual, 0.2, PipelineConfig(pi_budget=3, partition_retries=2), 3)
    assert not outcome.matched and (outcome.pi_attempts, outcome.partition_attempts) == (3, 2)
    assert type(outcome.pi_attempts) is int and type(outcome.partition_attempts) is int
    partite = induce_partite(residual, sample_balanced_partition(12, 3, 0))
    assert type(find_matching_permutations(partite, np.int64(4), 3).attempts) is int


def test_partition_retries_score_few_candidates_on_every_key(monkeypatch):
    # the none-n240 benchmark config: no retry passes, so all 20 are bounded
    # on the probe keys in one pass, and the branch and bound counts every
    # key in one more pass, for the 4 candidates one packed word holds
    cfg = ExperimentConfig(n=240, k=3, p=0.2, epsilon=0.2, trials=3, base_seed=2024,
                           partition_retries=20, pi_budget=100, strategy=STRATEGY_FULL)
    part_counts, passes = sampling._part_counts, []

    def counted(completions, offsets, labels, k):
        passes.append((len(offsets) == keys + 1, len(labels)))
        return part_counts(completions, offsets, labels, k)

    monkeypatch.setattr(sampling, "_part_counts", counted)
    for trial in range(3):
        keys = len(derive_trial_hypergraphs(cfg, trial)[1]._keys)
        passes.clear()
        outcome = run_trial(cfg, trial)
        assert outcome.partition_attempts == 20 and not outcome.partition_passed
        assert passes == [(False, 20), (True, 4)]


@pytest.mark.parametrize("fields,trials,full_passes", [
    (dict(n=60, p=0.5, adversary="greedy", partition_retries=50, pi_budget=200), 10, [1] * 8 + [2, 1]),
    (dict(n=240, p=0.2, adversary="none", partition_retries=20, pi_budget=100), 2, [1, 1]),
], ids=["greedy-n60", "none-n240"])
def test_partition_search_work_on_benchmark_graphs(partition_work, fields, trials, full_passes):
    # no retry passes on the benchmark graphs at seed 2024, so every
    # candidate is drawn, and only the few that can still win are scored
    # on every key, each once, in passes of at most one packed word's rows
    drawn, passes = partition_work
    cfg = ExperimentConfig(k=3, epsilon=0.2, trials=trials, base_seed=2024, strategy=STRATEGY_FULL, **fields)
    for trial in range(trials):
        assert not run_trial(cfg, trial).partition_passed
        h = derive_trial_hypergraphs(cfg, trial)[1]
        rows = [row for full_pass in passes[trial] for row in full_pass]
        assert len(rows) == len(set(rows))
        assert max(map(len, passes[trial])) <= sampling._packing(h._degrees(), h.k)[1]
    assert len(drawn) == trials * cfg.partition_retries
    assert [len(scored) for scored in passes] == full_passes


def test_word_path_scores_every_retry_once_on_the_greedy_benchmark(word_work):
    # n = 60: no retry passes at seed 2024, so all 50 are drawn, and each
    # is scored on every key exactly once, in the order drawn
    drawn, scored = word_work
    cfg = ExperimentConfig(n=60, k=3, p=0.5, epsilon=0.2, adversary="greedy", partition_retries=50,
                           pi_budget=200, trials=10, base_seed=2024, strategy=STRATEGY_FULL)
    for trial in range(cfg.trials):
        assert not run_trial(cfg, trial).partition_passed
    assert len(drawn) == cfg.trials * cfg.partition_retries and scored == drawn


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


@pytest.mark.parametrize("where", ["inside-block", "never", "first"])
def test_partition_retries_match_one_at_a_time_loop(where, monkeypatch):
    h, seed, retries = sample_hypergraph(30, 2, 0.8, 3), 5, 20
    candidates = [sample_balanced_partition(30, 2, substream(substream(seed, 1), r)) for r in range(retries)]
    scored = [(oracles.worst_deviation_by_recount(h.edges, 2, c.assignment), c) for c in candidates]
    best_so_far = list(itertools.accumulate((d for d, _ in scored), min))
    block = max(1, 64 // h.codegree_extremes()[1].bit_length() // (h.k - 1))
    if where == "inside-block":
        # a new best strictly inside a packed group, so later candidates of
        # that group are scored too; alpha lands between it and every earlier one
        r = next(r for r in range(1, retries)
                 if 0 < r % block < block - 1 and best_so_far[r] < best_so_far[r - 1])
        alpha, attempts = (best_so_far[r] + best_so_far[r - 1]) / 2, r + 1
    elif where == "never":
        alpha, attempts = best_so_far[-1] / 2, retries
    else:
        alpha, attempts = 0.49, 1
    eps = alpha / (1 - 2 * alpha)
    expected = oracles.retry_loop_one_at_a_time(scored, partition_tolerance(eps))
    assert expected[:2] == (attempts, where != "never")
    chosen = []

    def induce_and_record(hypergraph, partition):
        chosen.append(partition)
        return induce_partite(hypergraph, partition)

    monkeypatch.setattr(pipeline, "induce_partite", induce_and_record)
    outcome = find_perfect_matching(h, eps, PipelineConfig(partition_retries=retries), seed=seed)
    assert (outcome.partition_attempts, outcome.partition_passed,
            outcome.partition_worst_deviation, chosen[0]) == expected


@pytest.mark.parametrize("retries", [1, 2, 3, 31, 55, 70])
def test_partition_retries_are_the_per_retry_partitions(retries, monkeypatch):
    # label blocks of 32 rows: scalar shuffles below 24 rows (1, 2, 3, and
    # the last chunks, 23 and 6, of 55 and 70), block shuffles from 24 (31
    # and the full chunks of 32)
    h, seed, choose = sample_hypergraph(30, 3, 0.5, 4), 9, pipeline.choose_partition
    seen = []

    def choose_and_record(hypergraph, blocks, alpha):
        return choose(hypergraph, (seen.append(block) or block for block in blocks), alpha)

    monkeypatch.setattr(pipeline, "choose_partition", choose_and_record)
    find_perfect_matching(h, 1e-6, PipelineConfig(partition_retries=retries), seed=seed)
    partition_seed = substream(seed, pipeline._LABEL_PARTITION)
    expected = [sample_balanced_partition(30, 3, substream(partition_seed, r)) for r in range(retries)]
    assert [len(block) for block in seen] == [min(32, retries - start) for start in range(0, retries, 32)]
    assert [tuple(row) for block in seen for row in block.tolist()] == [p.assignment for p in expected]


def test_hall_equivalence_exhaustive_m2():
    # quick slice of the acceptance criterion: all 16 graphs on 2 + 2 vertices
    from hypermatch import BipartiteGraph

    for code in range(16):
        adj = oracles.graph_from_bitmask(2, code)
        exists = oracles.perfect_matching_exists(adj)
        assert exists == oracles.hall_conditions_hold(adj)
        assert exists == max_matching(BipartiteGraph(2, adj)).is_perfect()


@pytest.fixture
def index_builds(monkeypatch):
    """The hypergraphs whose co-degree index is built, in build order."""
    builds, build_index = [], Hypergraph._build_index

    def counted(self):
        builds.append(self)
        return build_index(self)

    monkeypatch.setattr(Hypergraph, "_build_index", counted)
    return builds


@pytest.mark.parametrize("strategy", [STRATEGY_PI1, STRATEGY_FULL])
def test_pipeline_builds_no_index(strategy, index_builds):
    # delta* and the pi-search read the restriction's row table; the only
    # co-degree indexes are those of the graphs handed in, each built once
    # (the adversaries' by the residual minimum in their outcomes, the unread
    # copy's by the pipeline); the greedy scan counts the sampled graph's
    # co-degrees from its edge array, as C(24, 2) <= 3E
    sampled = sample_hypergraph(24, 3, 0.6, 11)
    graphs = {"none": sample_hypergraph(24, 3, 0.6, 11), "greedy": greedy_budget_adversary(sampled, 3, 1).result,
              "parity": parity_adversary(sampled).result}
    outcomes = {name: find_perfect_matching(h, 0.2, PipelineConfig(pi_budget=30, strategy=strategy), seed=4)
                for name, h in graphs.items()}
    assert sorted(map(id, index_builds)) == sorted(map(id, graphs.values()))
    assert outcomes["none"].matched and not outcomes["parity"].matched
    assert outcomes["parity"].min_transversal_codegree == 0


def test_parity_trial_builds_only_the_residual_index(index_builds):
    # the parity adversary reads only the sampled edge array, and the record
    # only its edge count; the residual's index serves the co-degree minimum
    # and the partition search
    cfg = ExperimentConfig(n=30, k=3, p=0.5, epsilon=0.2, trials=1, base_seed=2024, adversary="parity",
                           pi_budget=40)
    sampled, residual = derive_trial_hypergraphs(cfg, 0)
    index_builds.clear()
    outcome = run_trial(cfg, 0)
    assert not outcome.record.matched and outcome.record.edges_after < outcome.record.edges_before
    assert index_builds == [residual] and residual != sampled
