import itertools
import math

import numpy as np
import pytest

from hypermatch import (
    BalancedPartition,
    Hypergraph,
    check_codegree_concentration,
    partition_worst_deviation,
    sample_balanced_partition,
    sample_hypergraph,
    verify_partition,
)

from hypermatch.rng import Rng
from hypermatch.sampling import _part_counts, score_partitions

import oracles


def complete(n, k=3):
    return Hypergraph(n, k, oracles.complete_edges(n, k))


# -- hypergraph sampling -------------------------------------------------------


def test_degenerate_probabilities():
    assert sample_hypergraph(10, 3, 0.0, 5).edges == ()
    assert len(sample_hypergraph(10, 3, 1.0, 5).edges) == 120


def test_determinism_and_seed_sensitivity():
    a = sample_hypergraph(12, 3, 0.5, 7)
    b = sample_hypergraph(12, 3, 0.5, 7)
    c = sample_hypergraph(12, 3, 0.5, 8)
    assert a == b
    assert a != c


def test_rejects_bad_probability():
    with pytest.raises(ValueError):
        sample_hypergraph(10, 3, 1.5, 0)
    with pytest.raises(ValueError):
        sample_hypergraph(10, 3, -0.1, 0)


def test_mean_edge_count_binomial():
    # E = C(10,3) * 0.5 = 60, sigma = sqrt(120 * 0.25); 3 standard errors over 1000 seeds
    mean = sum(len(sample_hypergraph(10, 3, 0.5, s).edges) for s in range(1000)) / 1000
    window = 3 * math.sqrt(120 * 0.25) / math.sqrt(1000)
    assert abs(mean - 60.0) < window


@pytest.mark.parametrize("n,k,p", [(12, 2, 0.3), (14, 3, 0.5), (11, 4, 0.4), (9, 9, 1.0)])
def test_sampler_edges_are_the_drawn_subsets(n, k, p):
    # draw t of the stream decides the t-th k-subset in lexicographic order
    for seed in range(3):
        mask = Rng(seed).uniform_block(math.comb(n, k)) < p
        expected = tuple(itertools.compress(itertools.combinations(range(n), k), mask))
        assert sample_hypergraph(n, k, p, seed).edges == expected


# -- balanced partitions -------------------------------------------------------


def test_partition_shapes():
    p = sample_balanced_partition(6, 3, 0)
    assert p.k == 3 and all(len(part) == 2 for part in p.parts)
    singles = sample_balanced_partition(6, 6, 0)
    assert all(len(part) == 1 for part in singles.parts)


@pytest.mark.parametrize("seed", [-3, 0, 1, 2024, 2**64 + 9])
def test_partition_cuts_the_scalar_permutation(seed):
    perm = Rng(seed).permutation(60)
    expected = [perm[j * 20:(j + 1) * 20] for j in range(3)]
    assert sample_balanced_partition(60, 3, seed).parts == tuple(tuple(sorted(part)) for part in expected)


@pytest.mark.parametrize("n,k", [(6, 3), (60, 3), (240, 3), (12, 4), (10, 2)])
def test_partition_fast_path_equals_validating_constructor(n, k):
    m = n // k
    for seed in range(50):
        fast = sample_balanced_partition(n, k, seed)
        perm = Rng(seed).permutation(n)
        checked = BalancedPartition(perm[j * m:(j + 1) * m] for j in range(k))
        assert fast.parts == checked.parts and fast.assignment == checked.assignment
        assert all(type(v) is int for v in fast.parts[0] + fast.assignment)


def test_partition_requires_divisibility():
    for n, k in ((7, 3), (0, 3), (-3, 3)):
        with pytest.raises(ValueError):
            sample_balanced_partition(n, k, 0)


def test_partition_exchangeability():
    hits = sum(1 for s in range(10_000) if sample_balanced_partition(6, 3, s).assignment[0] == 0)
    se = math.sqrt((1 / 3) * (2 / 3) / 10_000)
    assert abs(hits / 10_000 - 1 / 3) < 4 * se


# -- partition verification ----------------------------------------------------


def test_tiny_complete_partition_violates():
    from hypermatch import BalancedPartition

    h = complete(6)
    p = BalancedPartition([(0, 1), (2, 3), (4, 5)])
    report = verify_partition(h, p, 0.9)
    assert not report.passed
    # X = {0, 1} exhausts its own part: d(X, part 0) = 0 while d(X)/3 = 4/3
    assert ((0, 1), 0, 0, 4) in report.violations


def test_complete_k60_passes_at_02():
    h = complete(60)
    p = sample_balanced_partition(60, 3, 5)
    report = verify_partition(h, p, 0.2)
    assert report.passed
    assert report.checked == math.comb(60, 2) and report.skipped == 0
    # extensions are 18..20 of d(X) = 58, so the worst ratio is |54/58 - 1|
    assert report.worst_deviation == pytest.approx(4 / 58)


def test_empty_hypergraph_passes_vacuously():
    h = Hypergraph(6, 3, [])
    p = sample_balanced_partition(6, 3, 1)
    report = verify_partition(h, p, 0.01)
    assert report.passed
    assert report.checked == 0 and report.skipped == math.comb(6, 2)
    assert report.worst_deviation == 0.0


def test_report_consistency_and_fast_path():
    for seed in range(5):
        h = sample_hypergraph(12, 3, 0.6, seed)
        p = sample_balanced_partition(12, 3, seed + 50)
        report = verify_partition(h, p, 0.3)
        assert partition_worst_deviation(h, p) == report.worst_deviation
        assert report.passed == (report.worst_deviation <= 0.3)


def test_report_against_direct_recount():
    h = sample_hypergraph(12, 3, 0.5, 3)
    p = sample_balanced_partition(12, 3, 4)
    report = verify_partition(h, p, 0.25)
    for x, i, count, total in report.violations:
        assert oracles.codegree_into_by_enumeration(h.edges, x, p.parts[i]) == count
        assert h.codegree(x) == total
        assert abs(count * 3 / total - 1) > 0.25
    worst = max(
        abs(oracles.codegree_into_by_enumeration(h.edges, x, part) * 3 / h.codegree(x) - 1)
        for x in itertools.combinations(range(12), 2)
        if h.codegree(x) > 0
        for part in p.parts
    )
    assert report.worst_deviation == pytest.approx(worst)


@pytest.mark.parametrize("n", [30, 60])
def test_complete_never_violates_at_2k_over_m(n):
    h = complete(n)
    m = n // 3
    p = sample_balanced_partition(n, 3, 9)
    assert verify_partition(h, p, 2 * 3 / m).passed


def test_mismatched_partition_rejected():
    h = complete(6)
    with pytest.raises(ValueError):
        verify_partition(h, sample_balanced_partition(9, 3, 0), 0.5)


@pytest.mark.parametrize("alpha", [-0.1, math.inf, math.nan])
def test_alpha_must_be_nonnegative_and_finite(alpha):
    with pytest.raises(ValueError, match="alpha"):
        verify_partition(complete(6), sample_balanced_partition(6, 3, 0), alpha)


def _hub_edges(n, k, hub_degree, seed):
    """Edges X + {v} for X = (0..k-2) and hub_degree vertices v, plus 40
    random edges that miss vertex 0, so X alone attains the maximum co-degree."""
    hub = tuple(range(k - 1))
    spokes = [hub + (v,) for v in range(k - 1, k - 1 + hub_degree)]
    draw = np.random.default_rng(seed)
    rest = [draw.choice(np.arange(1, n), k, replace=False).tolist() for _ in range(40)]
    h = Hypergraph(n, k, spokes + rest)
    assert h.codegree_extremes()[1] == hub_degree
    return h


PACKING_CASES = {
    "k2": lambda: sample_hypergraph(12, 2, 0.5, 1),
    "k3": lambda: sample_hypergraph(15, 3, 0.5, 2),
    "k4": lambda: sample_hypergraph(12, 4, 0.4, 3),
    "max-2^4-1": lambda: _hub_edges(18, 3, 15, 4),   # w = 4: the field is full
    "max-2^4": lambda: _hub_edges(18, 3, 16, 5),     # w = 5
    "k9-spill": lambda: _hub_edges(144, 9, 136, 6),  # w = 8, k * w = 72 > 64
    "empty": lambda: Hypergraph(6, 3, []),
}


@pytest.mark.parametrize("case", PACKING_CASES)
def test_packed_part_counts_match_recount(case):
    h = PACKING_CASES[case]()
    n, k = h.n, h.k
    width = max(1, h.codegree_extremes()[1].bit_length())
    block = max(1, 64 // width // k)
    # 13 partitions: a multiple of no block size above 1
    partitions = [sample_balanced_partition(n, k, s) for s in range(13)]
    counted = list(_part_counts(h, partitions))
    assert [p for p, _ in counted] == partitions
    for p, counts in counted:
        assert counts.T.tolist() == oracles.part_counts_by_recount(h.edges, k, p.assignment)
    worst = [oracles.worst_deviation_by_recount(h.edges, k, p.assignment) for p in partitions]
    assert [d for _, d in score_partitions(h, partitions)] == worst
    assert [partition_worst_deviation(h, p) for p in partitions] == worst
    # partitions are drawn one block at a time
    source = iter(partitions)
    next(score_partitions(h, source))
    assert len(list(source)) == max(0, len(partitions) - block)


# -- co-degree concentration ----------------------------------------------------


def test_concentration_complete_graph():
    h = complete(10)
    # all co-degrees equal n - k + 1 = 8; eps >= (k-1)/n makes the window contain it
    report = check_codegree_concentration(h, 1.0, 0.2)
    assert report.ok and report.offender is None


def test_concentration_empty_graph():
    h = Hypergraph(10, 3, [])
    report = check_codegree_concentration(h, 0.5, 0.9)
    assert not report.ok
    assert report.offender is not None and report.offender_codegree == 0
    assert h.codegree(report.offender) == 0


@pytest.mark.parametrize("p, eps", [(math.nan, 0.1), (0.5, math.nan), (0.5, math.inf), (1.5, 0.1), (-0.1, 0.1)])
def test_concentration_rejects_non_finite_or_bad_density(p, eps):
    with pytest.raises(ValueError):
        check_codegree_concentration(complete(10), p, eps)


def test_concentration_offender_recomputes():
    h = sample_hypergraph(20, 3, 0.3, 8)
    report = check_codegree_concentration(h, 0.3, 0.05)
    if not report.ok:
        assert h.codegree(report.offender) == report.offender_codegree
        outside = (report.offender_codegree < report.lower
                   or report.offender_codegree > report.upper)
        assert outside


@pytest.mark.slow
def test_concentration_statistical_rendering():
    # Exact binomial tails (see oracles.exact_binomial_*) put ~80 expected
    # violating pairs per seed at eps = 0.3, n = 200, p = 0.3: the check must
    # fail essentially always there. At eps = 0.6 the per-seed union bound is
    # ~3.5e-4, so every tested seed passes. Seeds frozen after verification.
    from fractions import Fraction

    n, p = 200, Fraction(3, 10)
    trials = n - 3 + 1
    low_strict = oracles.exact_binomial_lower_strict(trials, p, 42)
    up = oracles.exact_binomial_upper(trials, p, 79)
    per_pair = float(low_strict + up)
    assert per_pair * math.comb(200, 2) > 50  # eps = 0.3 is hopeless
    tight_low = oracles.exact_binomial_lower_strict(trials, p, 24)
    tight_up = oracles.exact_binomial_upper(trials, p, 97)
    assert float(tight_low + tight_up) * math.comb(200, 2) < 0.01  # eps = 0.6 is safe

    for s in range(12):
        h = sample_hypergraph(200, 3, 0.3, 1000 + s)
        assert not check_codegree_concentration(h, 0.3, 0.3).ok
    for s in range(12):
        h = sample_hypergraph(200, 3, 0.3, 2000 + s)
        assert check_codegree_concentration(h, 0.3, 0.6).ok
