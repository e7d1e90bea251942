"""Closed-form tail bound evaluators.

Values above 1 are returned unclamped and flagged vacuous; callers decide
what to do with an uninformative bound. Exact binomial tails (used by the
self-test mode and by the test suite's oracles) sum pmf terms computed in
log space, so no term overflows at any trial count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class BoundValue:
    """A probability bound; vacuous means the value exceeds 1."""

    value: float
    vacuous: bool

    @classmethod
    def of(cls, value: float) -> "BoundValue":
        return cls(value, value > 1.0)


def chernoff_bounds(a: float, mu: float) -> tuple[BoundValue, Optional[BoundValue]]:
    """Binomial tail bounds for relative deviation a from mean mu.

    Lower tail: P(X < (1-a)mu) < exp(-a^2 mu / 2), any a > 0.
    Upper tail: P(X > (1+a)mu) < exp(-a^2 mu / 3), only for 0 < a < 3/2
    (None outside that range). The same bounds hold for hypergeometric X.
    """
    if a <= 0:
        raise ValueError("deviation a must be positive")
    if mu < 0:
        raise ValueError("mean must be nonnegative")
    lower = BoundValue.of(math.exp(-a * a * mu / 2.0))
    upper = BoundValue.of(math.exp(-a * a * mu / 3.0)) if a < 1.5 else None
    return lower, upper


def binomial_upper_tail(trials: int, q: float, threshold: int) -> float:
    """Exact P(X >= threshold) for X ~ Bin(trials, q), by pmf summation."""
    if trials < 0 or not 0.0 <= q <= 1.0:
        raise ValueError("need trials >= 0 and q in [0, 1]")
    lo = max(0, threshold)
    if q in (0.0, 1.0):  # all mass on X = trials * q
        return float(lo <= trials * q)
    log_q, log_rest, log_all = math.log(q), math.log1p(-q), math.lgamma(trials + 1)
    terms = [
        math.exp(log_all - math.lgamma(j + 1) - math.lgamma(trials - j + 1)
                 + j * log_q + (trials - j) * log_rest)
        for j in range(lo, trials + 1)
    ]
    return min(1.0, math.fsum(terms))


def binomial_tail_bound(trials: int, q: float, threshold: int, *, self_test: bool = False) -> BoundValue:
    """(e * trials * q / threshold)^threshold >= P(Bin(trials, q) >= threshold).

    With self_test=True and trials <= 30 the exact tail is computed and the
    bound is asserted to dominate it.
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    if trials < 0 or not 0.0 <= q <= 1.0:
        raise ValueError("need trials >= 0 and q in [0, 1]")
    try:
        value = (math.e * trials * q / threshold) ** threshold
    except OverflowError:  # only a base above 1 overflows, so the bound is vacuous
        value = math.inf
    if self_test and trials <= 30:
        exact = binomial_upper_tail(trials, q, threshold)
        if exact > value * (1 + 1e-12) + 1e-300:
            raise AssertionError(
                f"bound {value} fails to dominate exact tail {exact} "
                f"at Bin({trials}, {q}) >= {threshold}")
    return BoundValue.of(value)


def mcdiarmid_bound(t: float, r: float, c: float, median: float) -> BoundValue:
    """2 * exp(-t^2 / (16 r c^2 M)) for the permutation concentration setup:
    swapping two elements moves the statistic by at most 2c, and value s is
    certified by at most r*s coordinates."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    if r <= 0 or c <= 0 or median <= 0:
        raise ValueError("r, c, and the median must be positive")
    return BoundValue.of(2.0 * math.exp(-(t * t) / (16.0 * r * c * c * median)))
