import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from hypermatch import (
    BalancedPartition,
    Hypergraph,
    check_codegree_concentration,
    greedy_budget_adversary,
    partition_tolerance,
    partition_worst_deviation,
    sample_balanced_partition,
    sample_hypergraph,
    verify_partition,
)

from hypermatch import pipeline, rng, sampling
from hypermatch.rng import Rng, substream
from hypermatch.sampling import _part_counts, _probe, choose_partition

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


@pytest.mark.parametrize("n,k", [(10, 1), (10, 0), (2, 3)])
def test_rejects_bad_sizes(n, k):
    with pytest.raises(ValueError, match="n >= k >= 2"):
        sample_hypergraph(n, k, 0.5, 0)


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


GRID_P = [0.0, 5e-324, 2**-53, 0.2, 0.5, 1 - 2**-53, 1.0]


# C(n, k) just below and just above one chunk, and over several chunks
@pytest.mark.parametrize("n,k", [(362, 2), (363, 2), (600, 2), (74, 3), (75, 3), (100, 3),
                                 (36, 4), (37, 4), (40, 4), (25, 5), (26, 5), (30, 5)])
def test_chunked_sampler_matches_full_block(n, k):
    for p in GRID_P:
        for seed in (0, 11):
            assert np.array_equal(sample_hypergraph(n, k, p, seed).edge_array,
                                  oracles.sample_by_full_block(n, k, p, seed))


@pytest.mark.parametrize("chunk_of", [lambda c: c - 1, lambda c: c, lambda c: c + 1, lambda c: c // 3],
                         ids=["above-one", "at-one", "below-one", "above-three"])
def test_chunk_edges_match_full_block(chunk_of, monkeypatch):
    # C(n, k) just above, at and just below one chunk, and just above three
    for n, k in [(20, 2), (12, 3), (13, 5)]:
        monkeypatch.setattr(sampling, "_CHUNK", chunk_of(math.comb(n, k)))
        for p in GRID_P:
            assert np.array_equal(sample_hypergraph(n, k, p, 3).edge_array,
                                  oracles.sample_by_full_block(n, k, p, 3))


@pytest.mark.parametrize("chunks", [2, 3, 7])
def test_split_chunk_runs_match_full_block(chunks, split_everywhere, monkeypatch):
    # the chunks cut into two runs of chunk starts, the first run half of them
    for n, k in [(20, 2), (12, 3), (13, 5)]:
        chunk = -(-math.comb(n, k) // chunks)
        assert len(range(0, math.comb(n, k), chunk)) == chunks
        monkeypatch.setattr(sampling, "_CHUNK", chunk)
        for p in GRID_P:
            assert np.array_equal(sample_hypergraph(n, k, p, 3).edge_array,
                                  oracles.sample_by_full_block(n, k, p, 3))
    assert split_everywhere.handed == (0 if split_everywhere.refuse else 3 * (len(GRID_P) - 1))


@pytest.mark.parametrize("p", GRID_P)
def test_integer_threshold_agrees_with_float_compare_at_boundary(p, monkeypatch):
    # both ends of the last u below ceil(p * 2**53) and of the first u at it
    top = math.ceil(p * 2**53)
    words = np.array([w for u in (top - 1, top) for w in (u << 11, (u << 11) + 2047) if 0 <= w < 2**64],
                     dtype=np.uint64)
    monkeypatch.setattr(sampling, "u64_blocks", lambda keys, count, start: words[None, start:start + count])
    expected = np.flatnonzero((words >> np.uint64(11)) * 2.0**-53 < p)
    assert len(words) >= 2 and np.array_equal(sampling._edge_ranks(len(words), p, 0), expected)


@pytest.mark.parametrize("n,k", [(3_000_000, 2), (100_000, 3)])
def test_impossible_subset_count_refused_before_drawing(n, k, monkeypatch):
    def no_draw(*args):
        raise AssertionError("a word was drawn")

    monkeypatch.setattr(sampling, "u64_blocks", no_draw)
    with pytest.raises(ValueError, match="int64 range"):
        sample_hypergraph(n, k, 0.001, 1)


def test_sparse_sampler_memory_is_not_per_subset():
    # C(1000, 3) words alone would take 1,268 MiB; the edges are ~17k rows
    tracemalloc.start()
    try:
        h = sample_hypergraph(1000, 3, 1e-4, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < h.edge_count() < 30_000
    assert peak < 64 * 2**20


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


@pytest.mark.parametrize("n,k", [(6.0, 3), (6, 3.0), ("6", 3), (6, "3")])
def test_partition_sizes_must_be_integers(n, k):
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        sample_balanced_partition(n, k, 0)


def test_partition_takes_numpy_int_sizes():
    assert sample_balanced_partition(np.int64(6), np.int32(3), 4) == sample_balanced_partition(6, 3, 4)


@pytest.mark.parametrize("seed", [1, 2**63 - 1])
def test_samplers_take_numpy_int_seeds(seed):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for wrapped in (np.int64(seed), np.uint64(seed)):
            assert sample_hypergraph(9, 3, 0.5, wrapped) == sample_hypergraph(9, 3, 0.5, seed)
            assert sample_balanced_partition(9, 3, wrapped) == sample_balanced_partition(9, 3, seed)
    for bad in (1.5, "1"):
        with pytest.raises(TypeError):
            sample_hypergraph(9, 3, 0.5, bad)
        with pytest.raises(TypeError):
            sample_balanced_partition(9, 3, bad)


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
    "k2": lambda: sample_hypergraph(12, 2, 0.5, 1),    # one field per partition
    "k3": lambda: sample_hypergraph(15, 3, 0.5, 2),
    "k4": lambda: sample_hypergraph(12, 4, 0.4, 3),
    "k5": lambda: sample_hypergraph(15, 5, 0.3, 4),
    "max-2^4-1": lambda: _hub_edges(18, 3, 15, 4),   # w = 4: the field is full
    "max-2^4": lambda: _hub_edges(18, 3, 16, 5),     # w = 5
    "k9-full": lambda: _hub_edges(144, 9, 136, 6),   # w = 8, (k - 1) * w = 64: one word exactly
    "k9-spill": lambda: _hub_edges(270, 9, 256, 6),  # w = 9, (k - 1) * w = 72 > 64: a second word
    "empty": lambda: Hypergraph(6, 3, []),
}


def _labels(partitions):
    """The partitions' assignments as one (B, n) label block."""
    return np.array([p.assignment for p in partitions], dtype=np.int64).reshape(len(partitions), -1)


@pytest.mark.parametrize("case", PACKING_CASES)
def test_packed_part_counts_match_recount(case):
    h = PACKING_CASES[case]()
    n, k = h.n, h.k
    width = max(1, h.codegree_extremes()[1].bit_length())
    rows = max(1, 64 // width // (k - 1))
    assert sampling._packing(h._degrees(), k) == (width, rows)
    if case == "k9-spill":
        assert (k - 1) * width > 64
    # 13 partitions: a multiple of no group size above 1
    partitions = [sample_balanced_partition(n, k, s) for s in range(13)]
    groups = list(_part_counts(h._completions, h._offsets, _labels(partitions), k))
    assert [len(g) for g in groups] == [min(rows, 13 - start) for start in range(0, 13, rows)]
    counted = np.concatenate(groups)
    degrees = h._degrees()
    for p, counts in zip(partitions, counted, strict=True):
        assert counts.T.tolist() == oracles.part_counts_by_recount(h.edges, k, p.assignment)
        # the last part's count is derived, and lies in [0, co-degree]
        assert ((counts[-1] >= 0) & (counts[-1] <= degrees)).all()
    worst = [oracles.worst_deviation_by_recount(h.edges, k, p.assignment) for p in partitions]
    assert [partition_worst_deviation(h, p) for p in partitions] == worst
    assert sampling._worst_deviations(h._completions, h._offsets, _labels(partitions), k) == worst


@pytest.mark.parametrize("k", [2, 3])
def test_derived_last_part_count_outside_its_range_is_an_error(k):
    # row 1 labels vertex 0 with -1, whose field is row 0's part k - 2: row 0
    # then counts vertex 0 twice, and its derived last-part count goes negative
    h = complete(12, k)
    labels = np.zeros((2, 12), dtype=np.int64)
    labels[0] = k - 2
    labels[1, 0] = -1
    with pytest.raises(AssertionError, match=r"\[0, co-degree\]"):
        list(_part_counts(h._completions, h._offsets, labels, k))


@pytest.mark.parametrize("count", [1, 23, 24, 32, 33, 70])
def test_partition_labels_are_the_trusted_assignments(count):
    # chunks of up to 32 rows, each below rng._BLOCK_ROWS: one sort shuffle a chunk
    assert sampling._RETRY_CHUNK < rng._BLOCK_ROWS
    n, k, seed = 30, 3, 8
    blocks = list(sampling._partition_labels(n, k, seed, count))
    chunk = sampling._RETRY_CHUNK
    assert [len(b) for b in blocks] == [min(chunk, count - start) for start in range(0, count, chunk)]
    labels = np.concatenate(blocks)
    m = n // k
    for t, row in enumerate(labels.tolist()):
        # the reference cut: block j of the scalar permutation is part j
        perm = Rng(substream(seed, t)).permutation(n)
        parts = tuple(tuple(sorted(perm[j * m:(j + 1) * m])) for j in range(k))
        assignment = tuple(j for v in range(n) for j in range(k) if v in parts[j])
        assert tuple(row) == assignment
        partition = sample_balanced_partition(n, k, substream(seed, t))
        assert (partition.parts, partition.assignment) == (parts, assignment)


# -- partition retries ----------------------------------------------------------


def _circulant(n, steps):
    # k = 2 and every vertex has degree 2 * len(steps): co-degree regular
    return Hypergraph(n, 2, [(i, (i + d) % n) for i in range(n) for d in steps])


RETRY_GRAPHS = {
    "k2": lambda: sample_hypergraph(30, 2, 0.5, 1),
    "k3": lambda: sample_hypergraph(30, 3, 0.5, 2),
    "k4": lambda: sample_hypergraph(20, 4, 0.6, 3),
    # co-degrees pile up at the threshold, and so do the least deviations
    "greedy-residual": lambda: greedy_budget_adversary(sample_hypergraph(60, 3, 0.5, 4), 21, 4).result,
    "regular": lambda: _circulant(20, (1, 2, 3)),
}


def _candidates(h, count, seed):
    return [sample_balanced_partition(h.n, h.k, substream(seed, r)) for r in range(count)]


def _blocks(candidates):
    """The candidates as label blocks of _RETRY_CHUNK rows, drawn lazily."""
    chunk = sampling._RETRY_CHUNK
    return (_labels(candidates[start:start + chunk]) for start in range(0, len(candidates), chunk))


def _assert_choice_matches_loop(h, candidates, alpha):
    """choose_partition against the one-at-a-time retry loop; returns the
    loop's (attempts, passed, deviation, partition)."""
    expected = oracles.retry_loop_one_at_a_time([(partition_worst_deviation(h, c), c) for c in candidates], alpha)
    partition, deviation, attempts = choose_partition(h, _blocks(candidates), alpha)
    assert partition == expected[3] and (deviation, attempts) == (expected[2], expected[0])
    assert partition.assignment == expected[3].assignment
    return expected


@pytest.mark.parametrize("graph", list(PACKING_CASES) + list(RETRY_GRAPHS) + ["complete"])
def test_probe_is_the_lowest_degree_keys_holding_an_eighth(graph):
    h = complete(12) if graph == "complete" else {**PACKING_CASES, **RETRY_GRAPHS}[graph]()
    degrees = h._degrees().tolist()
    cut = min((d for d in degrees if 8 * sum(x for x in degrees if x <= d) >= sum(degrees)), default=0)
    kept = [s for s, d in enumerate(degrees) if d <= cut]
    if graph in ("regular", "complete"):
        assert len(kept) == len(degrees)
    completions, offsets = _probe(h._completions, h._offsets)
    assert offsets.tolist() == [0] + list(itertools.accumulate(degrees[s] for s in kept))
    assert completions.tolist() == [v for s in kept for v in h._completions[h._offsets[s]:h._offsets[s + 1]].tolist()]
    # the probe's counts are the full counts of its keys, so its worst deviation is a lower bound
    labels = _labels(_candidates(h, 5, 1))
    probed = np.concatenate(list(_part_counts(completions, offsets, labels, h.k)))
    full = np.concatenate(list(_part_counts(h._completions, h._offsets, labels, h.k)))
    assert probed.tolist() == full[:, :, kept].tolist()


@pytest.mark.parametrize("alpha", ["zero", "at-best", "between-prefix-minima"])
@pytest.mark.parametrize("graph", RETRY_GRAPHS)
def test_choose_partition_matches_one_at_a_time_loop(graph, alpha):
    h = RETRY_GRAPHS[graph]()
    candidates = _candidates(h, 70, 12)
    prefix = list(itertools.accumulate((partition_worst_deviation(h, c) for c in candidates), min))
    if alpha == "zero":
        value, attempts = 0.0, 70
    elif alpha == "at-best":  # the boundary passes
        value, attempts = prefix[-1], prefix.index(prefix[-1]) + 1
    else:  # the last strict drop of the prefix minimum, so earlier candidates fail
        r = max(r for r in range(1, 70) if prefix[r] < prefix[r - 1])
        value, attempts = (prefix[r] + prefix[r - 1]) / 2, r + 1
    assert _assert_choice_matches_loop(h, candidates, value)[:2] == (attempts, alpha != "zero")


@pytest.mark.parametrize("attempt", [1, 12, 31, 32, 33, 70])
def test_choose_partition_passes_at_the_first_candidate_within_alpha(attempt, partition_work):
    # chunks hold 32 candidates: a pass at retry 1, inside the first chunk,
    # at either side of its end and inside the third
    h = sample_hypergraph(30, 3, 0.5, 7)
    candidates = _candidates(h, 80, 13)
    deviations = [partition_worst_deviation(h, c) for c in candidates]
    candidates.insert(attempt - 1, candidates.pop(deviations.index(min(deviations))))
    assert _assert_choice_matches_loop(h, candidates, min(deviations))[:2] == (attempt, True)
    # no chunk past the pass is drawn, and no candidate is scored on every key twice
    drawn, passes = partition_work
    pipeline.choose_partition(h, _blocks(candidates), min(deviations))
    chunk = sampling._RETRY_CHUNK
    assert len(drawn) == min(len(candidates), -(-attempt // chunk) * chunk)
    [scored] = passes
    rows = [row for full_pass in scored for row in full_pass]
    assert len(rows) == len(set(rows))
    assert _labels(candidates[attempt - 1:attempt]).tobytes() in rows


def test_choose_partition_keeps_the_first_of_tied_least_deviations():
    h = RETRY_GRAPHS["greedy-residual"]()
    candidates = _candidates(h, 50, 17)
    deviations = [partition_worst_deviation(h, c) for c in candidates]
    least, alpha = min(deviations), partition_tolerance(0.2)
    assert deviations.count(least) > 1 and least > alpha
    first = candidates[deviations.index(least)]
    assert choose_partition(h, _blocks(candidates), alpha) == (first, least, 50)
    _assert_choice_matches_loop(h, candidates, alpha)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_choose_partition_on_an_empty_graph_passes_at_once(k):
    # every deviation is 0.0, so the first candidate passes even at alpha 0
    h = Hypergraph(12, k, [])
    candidates = _candidates(h, 5, 3)
    assert choose_partition(h, _blocks(candidates), 0.0) == (candidates[0], 0.0, 1)
    _assert_choice_matches_loop(h, candidates, 0.0)


def test_choose_partition_rejects_no_candidates_and_mismatched_ones():
    h = sample_hypergraph(12, 3, 0.5, 1)
    with pytest.raises(ValueError, match="candidate"):
        choose_partition(h, [], 0.1)
    with pytest.raises(ValueError, match="candidate"):
        choose_partition(h, [np.empty((0, 12), dtype=np.int64)], 0.1)
    with pytest.raises(ValueError, match="partition"):
        choose_partition(h, [_labels([sample_balanced_partition(15, 3, 0)])], 0.1)
    with pytest.raises(ValueError, match="partition"):
        partition_worst_deviation(h, sample_balanced_partition(12, 4, 0))


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


@pytest.mark.parametrize("p, eps", [(math.nan, 0.1), (0.5, math.nan), (0.5, math.inf), (1.5, 0.1), (-0.1, 0.1), (0.5, -0.1)])
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
