import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypermatch import ExtensionMatrix, extension_stats_empirical, extension_stats_exact
from hypermatch.extensions import variance_bound
from hypermatch.rng import Rng

import oracles


def random_matrix(m, density, seed):
    return ExtensionMatrix(Rng(seed).uniform_block(m * m).reshape(m, m) < density)


def exact_distribution_by_enumeration(matrix):
    import itertools

    rows = [set(np.nonzero(matrix.member[i])[0].tolist()) for i in range(matrix.m)]
    return [
        sum(1 for i in range(matrix.m) if perm[i] in rows[i])
        for perm in itertools.permutations(range(matrix.m))
    ]


def test_matrix_validation():
    with pytest.raises(ValueError):
        ExtensionMatrix([[True, False]])
    with pytest.raises(ValueError):
        ExtensionMatrix(np.zeros((0, 0), dtype=bool))
    mat = ExtensionMatrix([[True, False, False], [False, True, True], [False, False, False]])
    assert mat.row_sums == (1, 2, 0) and mat.total == 3
    assert mat.mean_degree() == Fraction(1)


def test_exact_worked_example():
    # slot 0 completed only by vertex 0; slot 1 by both vertices
    mat = ExtensionMatrix([[True, False], [True, True]])
    stats = extension_stats_exact(mat)
    assert stats.mu == Fraction(3, 2) == mat.mean_degree()
    assert stats.variance == Fraction(1, 4)
    assert stats.variance_bound == Fraction(3, 2) + 2 * Fraction(9, 4)
    assert stats.median == 1  # lower median of {1, 2}
    assert stats.mode == "exact"
    assert sorted(exact_distribution_by_enumeration(mat)) == [1, 2]


def test_exact_degenerate_tables():
    full = extension_stats_exact(ExtensionMatrix(np.ones((3, 3), dtype=bool)))
    assert full.mu == 3 and full.variance == 0 and full.median == 3
    none = extension_stats_exact(ExtensionMatrix(np.zeros((3, 3), dtype=bool)))
    assert none.mu == 0 and none.variance == 0 and none.median == 0


def test_exact_size_limit():
    with pytest.raises(ValueError):
        extension_stats_exact(ExtensionMatrix(np.zeros((8, 8), dtype=bool)))


def test_variance_bound_m1():
    assert variance_bound(Fraction(1), 1) == math.inf


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 5), st.integers(0, 2**30))
def test_exact_moments_match_enumeration(m, seed):
    mat = random_matrix(m, 0.5, seed)
    stats = extension_stats_exact(mat)
    values = exact_distribution_by_enumeration(mat)
    count = math.factorial(m)
    assert stats.mu == Fraction(sum(values), count) == mat.mean_degree()
    second = Fraction(sum(v * v for v in values), count)
    assert stats.variance == second - stats.mu**2
    assert stats.variance <= stats.variance_bound
    assert stats.median == oracles.lower_median(values)


def test_empirical_all_true_is_constant():
    mat = ExtensionMatrix(np.ones((5, 5), dtype=bool))
    stats = extension_stats_empirical(mat, 200, 3, alpha=0.1)
    assert stats.mu == 5.0 and stats.median == 5 and stats.variance == 0.0
    assert stats.containment is True


def test_empirical_mean_matches_exact():
    mat = ExtensionMatrix([[True, False], [True, True]])
    stats = extension_stats_empirical(mat, 100_000, 17)
    # binomial-ish standard error is ~0.0016; the window is ~12 sigma
    assert abs(stats.mu - 1.5) < 0.02
    assert stats.containment is None
    assert stats.samples == 100_000


def test_empirical_deterministic_and_seed_sensitive():
    mat = random_matrix(6, 0.4, 5)
    a = extension_stats_empirical(mat, 500, 9, alpha=0.5)
    b = extension_stats_empirical(mat, 500, 9, alpha=0.5)
    c = extension_stats_empirical(mat, 500, 10, alpha=0.5)
    assert a == b
    assert a.mu != c.mu or a.median == c.median


def test_empirical_requires_samples():
    with pytest.raises(ValueError):
        extension_stats_empirical(random_matrix(3, 0.5, 0), 0, 1)


def test_containment_uses_exact_mean():
    # median 0 but exact mean positive: containment must fail for small alpha
    member = np.zeros((5, 5), dtype=bool)
    member[0, 0] = True
    stats = extension_stats_empirical(ExtensionMatrix(member), 400, 2, alpha=0.5)
    assert stats.median == 0
    assert stats.containment is False


def test_large_instance_median_concentrates():
    mat = random_matrix(400, 0.5, 77)
    mu = float(mat.mean_degree())
    stats = extension_stats_empirical(mat, 400, 78, alpha=0.7)
    assert stats.containment is True
    assert abs(stats.median - mu) < 0.2 * mu
