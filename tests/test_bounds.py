import decimal
import itertools
import math
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from hypermatch import BoundValue, binomial_tail_bound, binomial_upper_tail, chernoff_bounds, mcdiarmid_bound

import oracles


def test_chernoff_example_values():
    lower, upper = chernoff_bounds(1.0, 10)
    assert lower.value == pytest.approx(math.exp(-5))
    assert lower.value == pytest.approx(6.7379e-3, rel=1e-4)
    assert upper.value == pytest.approx(math.exp(-10 / 3))
    assert upper.value == pytest.approx(3.5674e-2, rel=1e-4)


def test_chernoff_upper_only_below_three_halves():
    _, upper = chernoff_bounds(0.3, 100)
    assert upper.value == pytest.approx(4.9787e-2, rel=1e-4)
    _, absent = chernoff_bounds(2.0, 10)
    assert absent is None
    _, boundary = chernoff_bounds(1.5, 10)
    assert boundary is None  # the range is strict


def test_chernoff_rejects_bad_deviation():
    with pytest.raises(ValueError):
        chernoff_bounds(0.0, 10)
    with pytest.raises(ValueError):
        chernoff_bounds(-1.0, 10)
    with pytest.raises(ValueError):
        chernoff_bounds(0.5, -1)


@pytest.mark.parametrize("a, mu", [
    (math.nan, 3.0), (math.inf, 3.0), (0.5, math.nan), (0.5, math.inf), (math.nan, math.nan)])
def test_chernoff_rejects_non_finite_arguments(a, mu):
    with pytest.raises(ValueError, match="finite"):
        chernoff_bounds(a, mu)


def test_chernoff_vacuous_flag():
    lower, upper = chernoff_bounds(0.01, 1)
    assert not lower.vacuous and not upper.vacuous
    assert lower.value < 1.0
    # tiny mean, tiny a: the bound is ~1 but still below it
    lower2, _ = chernoff_bounds(1e-9, 0.0)
    assert lower2.value == 1.0 and not lower2.vacuous


def test_binomial_bound_example_values():
    # (e * 10 * 0.1 / 5)^5 = (e/5)^5 = 4.74922e-2
    assert binomial_tail_bound(10, 0.1, 5).value == pytest.approx((math.e / 5) ** 5)
    assert binomial_tail_bound(10, 0.1, 5).value == pytest.approx(4.7492e-2, rel=1e-4)
    zero = binomial_tail_bound(10, 0.0, 1)
    assert zero.value == 0.0
    assert binomial_upper_tail(10, 0.0, 1) == 0.0


def test_binomial_bound_vacuous_unclamped():
    big = binomial_tail_bound(20, 0.5, 15)
    assert big.vacuous and big.value > 1.0
    exact = oracles.exact_binomial_upper(20, Fraction(1, 2), 15)
    assert float(exact) <= big.value


def test_binomial_bound_rejects_bad_arguments():
    with pytest.raises(ValueError):
        binomial_tail_bound(10, 0.5, 0)
    with pytest.raises(ValueError):
        binomial_tail_bound(-1, 0.5, 2)
    with pytest.raises(ValueError):
        binomial_tail_bound(10, 1.5, 2)


@pytest.mark.parametrize("bad", [2.5, 10.0, "3"])
def test_binomial_counts_and_thresholds_are_integers(bad):
    for call in (lambda: binomial_upper_tail(bad, 0.5, 3), lambda: binomial_upper_tail(10, 0.5, bad),
                 lambda: binomial_tail_bound(bad, 0.5, 2), lambda: binomial_tail_bound(10, 0.5, bad)):
        with pytest.raises(TypeError):
            call()


def test_binomial_counts_take_numpy_ints_as_plain_ints():
    assert binomial_upper_tail(np.int64(10), 0.5, np.int32(3)) == binomial_upper_tail(10, 0.5, 3)
    assert binomial_tail_bound(np.int64(10), 0.5, np.uint8(3)) == binomial_tail_bound(10, 0.5, 3)


def test_binomial_self_test_grid():
    for trials in (5, 12, 30):
        for tenths in range(1, 10):
            for threshold in range(1, trials + 1):
                q = tenths / 10
                value = binomial_tail_bound(trials, q, threshold).value
                assert binomial_upper_tail(trials, q, threshold) <= value * (1 + 1e-12) + 1e-300


def test_mcdiarmid_example_values():
    assert mcdiarmid_bound(0, 1, 1, 100).value == 2.0
    assert mcdiarmid_bound(0, 1, 1, 100).vacuous
    assert mcdiarmid_bound(40, 1, 1, 100).value == pytest.approx(2 * math.exp(-1))
    assert mcdiarmid_bound(80, 1, 1, 100).value == pytest.approx(2 * math.exp(-4))
    assert mcdiarmid_bound(80, 1, 1, 100).value == pytest.approx(3.6631e-2, rel=1e-4)


def test_mcdiarmid_never_divides_by_an_underflowed_product():
    # c * c underflows to 0.0 here, though t / c is 1 and 1e200
    assert mcdiarmid_bound(1e-200, 1, 1e-200, 1).value == pytest.approx(2 * math.exp(-1 / 16), rel=1e-12)
    assert mcdiarmid_bound(1, 1, 1e-200, 1).value == 0.0
    extremes = (5e-324, 1e-200, 0.3, 1e200, sys.float_info.max)
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        for t in (0.0,) + extremes:
            for r, c, median in itertools.product(extremes, repeat=3):
                exponent = Fraction(t) ** 2 / (16 * Fraction(r) * Fraction(c) ** 2 * Fraction(median))
                exact = 2 * (-Decimal(exponent.numerator) / Decimal(exponent.denominator)).exp()
                value = mcdiarmid_bound(t, r, c, median).value
                assert value == pytest.approx(float(exact), rel=1e-12, abs=1e-300)


def test_mcdiarmid_rejects_bad_arguments():
    with pytest.raises(ValueError):
        mcdiarmid_bound(-1, 1, 1, 100)
    nan, inf = math.nan, math.inf
    for bad in ((1, 0, 1, 1), (1, 1, 0, 1), (1, 1, 1, 0),
                (nan, 1, 1, 1), (inf, 1, 1, 1), (1, nan, 1, 1), (1, inf, 1, 1),
                (1, 1, nan, 1), (1, 1, inf, 1), (1, 1, 1, nan), (1, 1, 1, inf)):
        with pytest.raises(ValueError):
            mcdiarmid_bound(*bad)


def test_monotonicity_grids():
    mus = [1, 5, 20]
    for mu in mus:
        lowers = [chernoff_bounds(a / 10, mu)[0].value for a in range(1, 30)]
        assert lowers == sorted(lowers, reverse=True)
        uppers = [chernoff_bounds(a / 10, mu)[1].value for a in range(1, 15)]
        assert uppers == sorted(uppers, reverse=True)
    mcd = [mcdiarmid_bound(t, 1, 1, 50).value for t in range(0, 100, 5)]
    assert mcd == sorted(mcd, reverse=True)


def test_exact_tail_helper_matches_fraction_oracle():
    for trials in (8, 16, 25):
        for tenths in (1, 5, 9):
            q = tenths / 10
            for threshold in range(0, trials + 2):
                exact = oracles.exact_binomial_upper(trials, Fraction(tenths, 10), threshold)
                assert binomial_upper_tail(trials, q, threshold) == pytest.approx(float(exact), abs=1e-12)


def test_exact_tail_sums_in_constant_memory():
    # math.fsum of the terms as they are made rounds exactly as of their list
    for trials, thresholds in ((8, range(10)), (16, range(18)), (25, range(27)),
                               (1100, (0, 515, 550, 600, 990, 1000, 1100, 1101))):
        for tenths in (1, 5, 9):
            for threshold in thresholds:
                assert (binomial_upper_tail(trials, tenths / 10, threshold)
                        == oracles.binomial_upper_tail_listed(trials, tenths / 10, threshold))
    tracemalloc.start()
    try:  # each side's list of 10^6 terms alone held 31 MiB
        binomial_upper_tail(2_000_000, 0.5, 1_000_000)  # the lower side, j < 10^6
        binomial_upper_tail(2_000_000, 0.5, 1_000_001)  # the upper side, j > 10^6
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_exact_tail_of_a_certain_event_is_one():
    # summed from the threshold up, 2*10^6 rounded log-space terms drifted to 0.9999999978
    assert binomial_upper_tail(2_000_000, 0.5, 0) == 1.0
    assert binomial_upper_tail(2_000_000, 0.5, 1) == 1.0
    assert binomial_upper_tail(2_000_000, 0.5, -5) == 1.0
    assert binomial_upper_tail(1100, 0.5, 0) == 1.0 and binomial_upper_tail(8, 0.1, 0) == 1.0


def test_exact_tail_at_1100_trials_matches_fraction_oracle():
    # math.comb(1100, 550) alone is too large for a float
    for tenths in (5, 9):
        pmf = oracles.exact_binomial_pmf(1100, Fraction(tenths, 10))
        for threshold in (0, 515, 550, 600, 990, 1000, 1100, 1101):
            exact = float(sum(pmf[threshold:], Fraction(0)))
            assert binomial_upper_tail(1100, tenths / 10, threshold) == pytest.approx(exact, rel=1e-11, abs=1e-300)
    assert binomial_upper_tail(1030, 0.5, 515) == pytest.approx(0.5124275649682878, rel=1e-11)


def test_exact_tail_at_100000_trials_matches_integer_oracle():
    exact = oracles.binomial_upper_by_integers(10**5, Fraction(1, 2), 50_500)
    assert binomial_upper_tail(10**5, 0.5, 50_500) == pytest.approx(float(exact), rel=1e-8)
    assert binomial_upper_tail(10**5, 0.5, 10**5) == 0.0  # 2^-100000 is below the float range
    assert binomial_upper_tail(10**5, 1.0, 10**5) == 1.0
    assert binomial_upper_tail(10**5, 0.0, 1) == 0.0
    assert binomial_upper_tail(10**5, 0.0, 0) == 1.0


def test_overflowing_bound_is_vacuous():
    assert binomial_tail_bound(10**6, 0.9, 1000) == BoundValue(math.inf, True)
    assert binomial_tail_bound(10**6, 1e-9, 1000).value < 1e-300  # underflow stays a value


def test_chernoff_dominates_hypergeometric_spot_checks():
    # same bounds for hypergeometric X (population N, K successes, n draws)
    cases = [(20, 10, 8), (15, 6, 5), (24, 12, 10)]
    for population, successes, draws in cases:
        pmf = oracles.exact_hypergeometric_pmf(population, successes, draws)
        mu = Fraction(draws * successes, population)
        for tenths in range(1, 15):
            a = tenths / 10
            lower, upper = chernoff_bounds(a, float(mu))
            below = sum((p for j, p in enumerate(pmf) if j < (1 - a) * mu), Fraction(0))
            assert float(below) <= lower.value * (1 + 1e-12)
            if upper is not None:
                above = sum((p for j, p in enumerate(pmf) if j > (1 + a) * mu), Fraction(0))
                assert float(above) <= upper.value * (1 + 1e-12)
