"""Acceptance gate: every criterion at its stated tolerance, one pass/fail
line each (run with -s to see them). Statistical criteria use the exact
seeds given here; they are regression properties at fixed seeds."""

import itertools
import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

import hypermatch.experiment as exp
from hypermatch import (
    BipartiteGraph,
    ExtensionMatrix,
    Hypergraph,
    binomial_tail_bound,
    check_perfect_matching,
    chernoff_bounds,
    count_perfect_matchings,
    extension_stats_empirical,
    extension_stats_exact,
    is_pseudorandom,
    max_matching,
    parity_adversary,
    sample_hypergraph,
)
from hypermatch.rng import Rng, substream

import oracles

pytestmark = pytest.mark.acceptance


@contextmanager
def criterion(num, title, limit_s):
    info = {}
    start = time.perf_counter()
    try:
        yield info
    except BaseException:
        print(f"\n[acceptance] criterion {num} ({title}): FAIL "
              f"after {time.perf_counter() - start:.1f}s")
        raise
    elapsed = time.perf_counter() - start
    detail = ", ".join(f"{k}={v}" for k, v in info.items())
    print(f"\n[acceptance] criterion {num} ({title}): PASS in {elapsed:.1f}s "
          f"(cap {limit_s}s)" + (f" [{detail}]" if detail else ""))
    assert elapsed < limit_s


# -- criterion 1: Hall equivalence, exhaustive for m in {1, 2, 3} ---------------


def test_criterion_1_hall_equivalence():
    with criterion(1, "Hall equivalence", 5.0) as info:
        graphs = 0
        for m in (1, 2, 3):
            for code in range(1 << (m * m)):
                adj = oracles.graph_from_bitmask(m, code)
                exists = oracles.perfect_matching_exists(adj)
                assert exists == oracles.hall_conditions_hold(adj), (m, code)
                assert exists == max_matching(BipartiteGraph(m, adj)).is_perfect(), (m, code)
                graphs += 1
        info["graphs"] = graphs
        info["exceptions"] = 0


# -- criterion 2: matching oracle equivalence -----------------------------------


def test_criterion_2_matching_oracle():
    with criterion(2, "matching vs exhaustive oracle", 30.0) as info:
        densities = (0.2, 0.5, 0.8)
        for i in range(1000):
            m = 2 + i % 7
            density = densities[i % 3]
            g = oracles.random_bipartite(m, density, substream(20_002, i))
            assert max_matching(g).size == oracles.exhaustive_max_matching(g.adjacency), i
        info["graphs"] = 1000
        info["exceptions"] = 0


# -- criterion 3: parity adversary soundness ------------------------------------


def test_criterion_3_parity_soundness():
    with criterion(3, "parity adversary soundness", 120.0) as info:
        instances = 0
        for n in (6, 9, 12):
            inputs = [Hypergraph(n, 3, oracles.complete_edges(n, 3))]
            inputs += [sample_hypergraph(n, 3, 0.8, substream(30_003, n * 100 + s))
                       for s in range(20)]
            for h in inputs:
                out = parity_adversary(h)
                assert count_perfect_matchings(out.result) == 0, (n, len(h.edges))
                instances += 1
        # residual co-degree of the dense construction stays high
        complete12 = Hypergraph(12, 3, oracles.complete_edges(12, 3))
        residual = parity_adversary(complete12).residual_min_codegree
        assert residual >= (0.5 - 0.25) * 12 * 1.0
        info["instances"] = instances
        info["n12_residual"] = residual


# -- criterion 4: extension statistics ------------------------------------------


def test_criterion_4_extension_statistics():
    with criterion(4, "permutation degree statistics", 60.0) as info:
        densities = (0.2, 0.35, 0.5, 0.65, 0.8)
        for i in range(500):
            m = 3 + i % 5
            density = densities[i % 5]
            member = Rng(substream(40_004, i)).uniform_block(m * m).reshape(m, m) < density
            matrix = ExtensionMatrix(member)
            stats = extension_stats_exact(matrix)
            assert stats.mu == Fraction(matrix.total, m)  # exact rational equality
            assert stats.variance <= stats.variance_bound
        info["matrices"] = 500

        big = ExtensionMatrix(Rng(41_000).uniform_block(1000 * 1000).reshape(1000, 1000) < 0.5)
        mu = big.mean_degree()
        stats = extension_stats_empirical(big, 2000, 41_001, alpha=0.7)
        assert stats.containment is True
        soft = (1 - 0.05) * mu <= stats.median <= (1 + 0.05) * mu
        info["m1000_median"] = stats.median
        info["m1000_mu"] = f"{float(mu):.2f}"
        info["within_5pct(soft)"] = soft  # reported, not gating


# -- criterion 5: bound validity --------------------------------------------------


def test_criterion_5_bound_validity():
    with criterion(5, "tail bounds dominate exact tails", 10.0) as info:
        comparisons = 0
        for n in range(1, 31):
            for tenths in range(1, 10):
                q = Fraction(tenths, 10)
                mu = float(n * q)
                pmf = oracles.exact_binomial_pmf(n, q)
                prefix = list(itertools.accumulate(pmf))  # prefix[j] = P(X <= j)
                for t in range(0, n + 1):
                    below = float(prefix[t - 1]) if t >= 1 else 0.0  # P(X < t)
                    above = float(1 - prefix[t]) if t <= n else 0.0  # P(X > t)
                    if t < mu:
                        a = 1.0 - t / mu
                        lower, _ = chernoff_bounds(a, mu)
                        assert below <= lower.value * (1 + 1e-9), (n, q, t)
                        comparisons += 1
                    if mu < t and (t / mu - 1.0) < 1.5:
                        a = t / mu - 1.0
                        _, upper = chernoff_bounds(a, mu)
                        assert above <= upper.value * (1 + 1e-9), (n, q, t)
                        comparisons += 1
                for k in range(1, n + 1):
                    bound = binomial_tail_bound(n, float(q), k)
                    exact = float(sum(pmf[k:], Fraction(0)))
                    assert exact <= bound.value * (1 + 1e-9), (n, q, k)
                    # no silent clamping: the raw formula value is returned
                    raw = (math.e * n * float(q) / k) ** k
                    assert bound.value == raw
                    assert bound.vacuous == (raw > 1.0)
                    comparisons += 1
        info["comparisons"] = comparisons
        info["exceptions"] = 0


# -- criterion 6: pseudorandom implies perfect matching ---------------------------


def _constructive_perfect(graph):
    mm = max_matching(graph)
    if not mm.is_perfect():
        return False
    rights = set()
    for u, v in enumerate(mm.row_to_right):
        if v in rights or v not in graph.adjacency[u]:
            return False
        rights.add(v)
    return len(rights) == graph.m


def test_criterion_6_pseudorandom_implies_matching():
    with criterion(6, "pseudorandom implies matching", 120.0) as info:
        densities = (0.25, 0.4, 0.5, 0.6, 0.75, 0.9, 1.0)
        epsilons = (0.1, 0.3, 0.5)
        combos = [
            (m, p, eps)
            for m in (4, 5, 6, 7, 8)
            for p in densities
            if m * p >= 2.0
            for eps in epsilons
        ]
        per_combo = math.ceil(100_000 / len(combos))
        checked = accepted = 0
        stream = 0
        for m, p, eps in combos:
            for _ in range(per_combo):
                stream += 1
                mask = Rng(substream(60_006, stream)).uniform_block(m * m).reshape(m, m) < p
                rows = [np.nonzero(mask[i])[0].tolist() for i in range(m)]
                g = BipartiteGraph(m, rows)
                checked += 1
                if is_pseudorandom(g, eps, p).pseudorandom:
                    accepted += 1
                    assert _constructive_perfect(g), (m, p, eps, g.adjacency)
        assert checked >= 100_000
        assert accepted > 0
        info["graphs"] = checked
        info["accepted"] = accepted
        info["exceptions"] = 0


# -- criteria 7 and 8: end-to-end rendering and determinism ------------------------


def _c7_config():
    return exp.ExperimentConfig(
        n=60, k=3, p=0.5, epsilon=0.2, trials=100, base_seed=2024,
        adversary="greedy", partition_retries=50, pi_budget=200,
        strategy="full-random",
    )


def _c3_config():
    return exp.ExperimentConfig(
        n=12, k=3, p=0.8, epsilon=0.25, trials=20, base_seed=333,
        adversary="parity", partition_retries=5, pi_budget=10,
    )


_FIRST_RUNS: dict = {}


def _first_run(tag, cfg):
    if tag not in _FIRST_RUNS:
        outcomes = exp.run_experiment(cfg)
        _FIRST_RUNS[tag] = (outcomes, exp.records_to_csv(exp.records(outcomes)))
    return _FIRST_RUNS[tag]


def test_criterion_7_end_to_end():
    with criterion(7, "end-to-end matching rate", 600.0) as info:
        cfg = _c7_config()
        assert cfg.resolved_threshold() == 21  # ceil(0.7 * n * p)
        outcomes, _ = _first_run("c7", cfg)
        summary = exp.summarize(exp.records(outcomes))
        matched = [o for o in outcomes if o.record.matched]
        # soundness gate is absolute: verified flags plus independent re-checks
        assert all(o.record.verified for o in matched)
        for o in matched:
            _, resisted = exp.derive_trial_hypergraphs(cfg, o.record.trial)
            assert check_perfect_matching(resisted, o.matching).ok, o.record.trial
        assert summary.success_rate >= 0.90
        info["success_rate"] = summary.success_rate
        info["verified"] = f"{len(matched)}/{len(matched)}"


def test_criterion_8_determinism(tmp_path):
    with criterion(8, "byte-identical reruns", 600.0) as info:
        for tag, cfg in (("c3", _c3_config()), ("c7", _c7_config())):
            _, first_csv = _first_run(tag, cfg)
            rerun = exp.run_experiment(cfg)
            first_path = tmp_path / f"{tag}_a.csv"
            second_path = tmp_path / f"{tag}_b.csv"
            first_path.write_text(first_csv)
            exp.write_records_csv(second_path, exp.records(rerun))
            assert first_path.read_bytes() == second_path.read_bytes(), tag
        info["configs"] = "c3, c7"
