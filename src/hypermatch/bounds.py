"""Closed-form tail bound evaluators.

Values above 1 are returned unclamped and flagged vacuous; callers decide
what to do with an uninformative bound. No bound checks itself at run
time: the exact tail :func:`binomial_upper_tail`, summed from log-space pmf
terms so that none overflows, is the reference the tests compare them against.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
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
    if not 0 < a < math.inf:
        raise ValueError("deviation a must be positive and finite")
    if not 0 <= mu < math.inf:
        raise ValueError("mean must be nonnegative and finite")
    lower = BoundValue.of(math.exp(-a * a * mu / 2.0))
    upper = BoundValue.of(math.exp(-a * a * mu / 3.0)) if a < 1.5 else None
    return lower, upper


def binomial_upper_tail(trials: int, q: float, threshold: int) -> float:
    """Exact P(X >= threshold) for X ~ Bin(trials, q), summing the pmf on the side
    without the mode floor((trials + 1) q): the upper side above it, else 1 minus
    the lower side, so threshold <= 0 reads 1. Each log-space term, and so that
    sum, is off by about lgamma(trials + 1) * 2^-53 relative (3e-9 at 2 * 10^6 trials)."""
    trials, threshold = operator.index(trials), operator.index(threshold)
    if trials < 0 or not 0.0 <= q <= 1.0:
        raise ValueError("need trials >= 0 and q in [0, 1]")
    lo = max(0, threshold)
    if q in (0.0, 1.0):  # all mass on X = trials * q
        return float(lo <= trials * q)
    log_q, log_rest, log_all = math.log(q), math.log1p(-q), math.lgamma(trials + 1)
    upper = lo > math.floor((trials + 1) * q)
    terms = (
        math.exp(log_all - math.lgamma(j + 1) - math.lgamma(trials - j + 1)
                 + j * log_q + (trials - j) * log_rest)
        for j in (range(lo, trials + 1) if upper else range(lo))
    )
    return min(1.0, math.fsum(terms)) if upper else 1.0 - math.fsum(terms)


def binomial_tail_bound(trials: int, q: float, threshold: int) -> BoundValue:
    """(e * trials * q / threshold)^threshold >= P(Bin(trials, q) >= threshold)."""
    trials, threshold = operator.index(trials), operator.index(threshold)
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    if trials < 0 or not 0.0 <= q <= 1.0:
        raise ValueError("need trials >= 0 and q in [0, 1]")
    try:
        value = (math.e * trials * q / threshold) ** threshold
    except OverflowError:  # only a base above 1 overflows, so the bound is vacuous
        value = math.inf
    return BoundValue.of(value)


def mcdiarmid_bound(t: float, r: float, c: float, median: float) -> BoundValue:
    """2 * exp(-t^2 / (16 r c^2 M)) for the permutation concentration setup:
    swapping two elements moves the statistic by at most 2c, and value s is
    certified by at most r*s coordinates."""
    if not 0 <= t < math.inf:
        raise ValueError("t must be nonnegative and finite")
    if not all(0 < x < math.inf for x in (r, c, median)):
        raise ValueError("r, c, and the median must be positive and finite")
    # exact, so no product underflows to 0; capped where exp is 0, so float() cannot overflow
    exponent = Fraction(t) ** 2 / (16 * Fraction(r) * Fraction(c) ** 2 * Fraction(median))
    return BoundValue.of(2.0 * math.exp(-float(min(exponent, 1000))))
