import tracemalloc
import warnings

import numpy as np
import pytest

from hypermatch import rng
from hypermatch.rng import GOLDEN, MASK64, Rng, mix64, permutations, substream, substreams, u64_blocks

# reference SplitMix64 outputs for seed 0 (widely published test vector)
SPLITMIX64_SEED0 = (
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
)


def test_matches_reference_stream():
    rng = Rng(0)
    assert tuple(rng.u64() for _ in range(4)) == SPLITMIX64_SEED0


def test_block_equals_scalar_draws():
    a = Rng(123456789)
    b = Rng(123456789)
    scalars = [a.u64() for _ in range(257)]
    assert b.u64_block(257).tolist() == scalars
    # interleaving keeps the counter aligned
    c = Rng(42)
    head = [c.u64() for _ in range(3)]
    tail = c.u64_block(5).tolist()
    d = Rng(42)
    assert d.u64_block(8).tolist() == head + tail


def test_determinism_and_seed_sensitivity():
    assert [Rng(9).u64() for _ in range(4)] == [Rng(9).u64() for _ in range(4)]
    assert Rng(9).u64() != Rng(10).u64()


def test_uniform_range():
    rng = Rng(7)
    block = rng.uniform_block(10_000)
    assert block.min() >= 0.0 and block.max() < 1.0
    assert abs(block.mean() - 0.5) < 0.02


def test_below_range_and_rough_uniformity():
    rng = Rng(11)
    counts = np.zeros(7, dtype=int)
    for _ in range(70_000):
        counts[rng.below(7)] += 1
    assert counts.sum() == 70_000
    # 4 standard deviations around 10000
    assert np.all(np.abs(counts - 10_000) < 4 * np.sqrt(70_000 * (1 / 7) * (6 / 7)))


def test_below_rejects_nonpositive():
    with pytest.raises(ValueError):
        Rng(0).below(0)


def test_permutation_is_a_permutation():
    for seed in range(5):
        perm = Rng(seed).permutation(40)
        assert sorted(perm) == list(range(40))
    assert Rng(3).permutation(40) == Rng(3).permutation(40)
    with pytest.raises(ValueError):
        Rng(1).permutation(-1)
    with pytest.raises(ValueError):
        permutations([0, 1], -2)
    for size in (0, 1, 3):
        with pytest.raises(ValueError, match="count must be nonnegative"):
            permutations([1, 2], size, -1)


def _scalar_shuffle(rng, items):
    for i in range(len(items) - 1, 0, -1):
        j = rng.below(i + 1)
        items[i], items[j] = items[j], items[i]


@pytest.mark.parametrize("size", [0, 1, 2, 3, 20, 241, 17153])
def test_shuffle_matches_scalar_fisher_yates(size):
    for seed in range(3):
        fast, slow = Rng(seed), Rng(seed)
        a, b = list(range(size)), list(range(size))
        fast.shuffle(a)
        _scalar_shuffle(slow, b)
        assert a == b and fast.counter == slow.counter
        assert fast.u64() == slow.u64()


def _assert_scalar_rows(keys, drawn, size, count):
    """drawn is the (len(keys), count, size) int64 block of Rng(key).permutation draws."""
    assert drawn.shape == (len(keys), count, size) and drawn.dtype == np.int64
    for key, shuffles in zip(np.asarray(keys, dtype=np.uint64).tolist(), drawn.tolist()):
        scalar = Rng(key)
        assert shuffles == [scalar.permutation(size) for _ in range(count)]


@pytest.mark.parametrize("size", [0, 1, 2, 3, 20, 60, 241, 17153])
@pytest.mark.parametrize("count", [1, 2, 3])
def test_permutations_match_scalar_permutations(size, count):
    keys = [0, 1, MASK64]
    vector = substreams(-5, range(3))
    for drawn_keys in (keys, vector):
        _assert_scalar_rows(drawn_keys, permutations(drawn_keys, size, count), size, count)


@pytest.mark.parametrize("size", [0, 1, 2, 20, 60, 241, 17153])
@pytest.mark.parametrize("count", [1, 2, 3])
def test_permutations_block_loop_matches_scalar_permutations(monkeypatch, size, count):
    """Row counts (keys times count) just below, at and above the crossover
    from the sort shuffle to the swaps applied to every row at once."""
    calls = []
    unpatched = rng._sort_shuffles

    def counting(swaps, size):
        calls.append(len(swaps))
        return unpatched(swaps, size)

    monkeypatch.setattr(rng, "_sort_shuffles", counting)
    crossover = rng._BLOCK_ROWS
    key_counts = sorted({(crossover - 1) // count, -(-crossover // count), -(-crossover // count) + 1})
    rows = [n * count for n in key_counts]
    assert rows[0] < crossover <= rows[1] and crossover <= rows[-1]
    for n in key_counts:
        keys = substreams(size, range(n))
        calls.clear()
        drawn = permutations(keys, size, count)
        assert calls == ([n * count] if n * count < crossover else [])
        _assert_scalar_rows(keys, drawn, size, count)


@pytest.mark.parametrize("size", [0, 1, 2, 3, 20, 60, 241, 17153, 120_001])
def test_sort_shuffles_match_apply_swaps(size):
    # the kernel alone, on swap rows of every reach: all zeros, all at their
    # own step (no-op swaps), and drawn
    width = max(size - 1, 0)
    reach = np.arange(size, 1, -1, dtype=np.uint64)
    drawn = u64_blocks(substreams(size, range(2)), width) % reach
    for swaps in (np.zeros((1, width), dtype=np.uint64), (reach - np.uint64(1))[None, :], drawn):
        shuffled = rng._sort_shuffles(swaps, size)
        assert shuffled.shape == (len(swaps), size) and shuffled.dtype == np.int64
        assert shuffled.tolist() == [rng.apply_swaps(list(range(size)), row) for row in swaps.tolist()]


def test_long_row_is_the_scalar_permutation():
    key = substream(24, 1)
    assert permutations([key], 120_000)[0, 0].tolist() == Rng(key).permutation(120_000)


def test_long_row_memory_is_a_few_arrays_of_the_row():
    # the sort shuffle holds a few int64 arrays of the row at once: a bound of
    # 8 words an entry; the scalar list path held about 84 bytes an entry
    size = 706_000
    tracemalloc.start()
    try:
        permutations([substream(3, 4)], size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 8 * size


@pytest.mark.parametrize("size", [0, 1, 5])
@pytest.mark.parametrize("count", [0, 1, 2])
def test_permutations_of_no_keys_are_empty(size, count):
    drawn = permutations([], size, count)
    assert drawn.shape == (0, count, size) and drawn.dtype == np.int64


def test_permutations_fall_back_to_scalar_draws(monkeypatch):
    """A row holding a word below() may reject is redrawn whole by Rng; the
    other rows keep their block draws, in either loop order."""
    unpatched = rng.u64_blocks
    redraws = []

    def near_top(keys, count, start=0):
        words = unpatched(keys, count, start)
        words[1, :1] = MASK64
        return words

    class CountingRng(Rng):
        def __init__(self, key):
            super().__init__(key)
            redraws.append(key)

    monkeypatch.setattr(rng, "u64_blocks", near_top)
    monkeypatch.setattr(rng, "Rng", CountingRng)
    for keys, size in (([9, 10, 11], 50), (list(range(9, 9 + rng._BLOCK_ROWS)), 50), ([9, 10], 17153)):
        redraws.clear()
        drawn = permutations(keys, size, 2)
        assert redraws == [10]
        _assert_scalar_rows(keys, drawn, size, 2)


def test_choose_distinct_and_in_range():
    picked = Rng(5).choose(100, 10)
    assert len(set(picked)) == 10
    assert all(0 <= v < 100 for v in picked)
    with pytest.raises(ValueError):
        Rng(5).choose(3, 4)


def test_substream_distinct_and_stable():
    seen = {substream(77, label) for label in range(1000)}
    assert len(seen) == 1000
    assert substream(77, 5) == substream(77, 5)
    assert substream(77, 5) != substream(78, 5)
    assert 0 <= substream(77, 5) <= MASK64


def test_mix64_bijective_on_samples():
    inputs = [0, 1, GOLDEN, MASK64, 2**32, 12345678901234567890]
    outputs = [mix64(x) for x in inputs]
    assert len(set(outputs)) == len(inputs)
    assert all(0 <= y <= MASK64 for y in outputs)


@pytest.mark.parametrize("seed", [-1, 0, 2**64 + 5])
def test_substreams_match_substream(seed):
    labels = list(range(1000)) + [2**63, 2**64 - 1]
    assert substreams(seed, labels).tolist() == [substream(seed, label) for label in labels]
    assert substreams(seed, np.arange(3, 9, dtype=np.uint64)).tolist() == [substream(seed, t) for t in range(3, 9)]


@pytest.mark.parametrize("count", [0, 1, 19, 257])
def test_u64_blocks_rows_match_scalar_blocks(count):
    keys = [0, 1, 123456789, GOLDEN, MASK64 - 1, MASK64]  # MASK64 wraps around on the first tick
    block = u64_blocks(keys, count)
    assert block.shape == (len(keys), count) and block.dtype == np.uint64
    for key, row in zip(keys, block.tolist()):
        assert row == Rng(key).u64_block(count).tolist()
    # a later start continues every stream where a scalar reader would be
    for key, row in zip(keys, u64_blocks(keys, count, start=3).tolist()):
        rng = Rng(key)
        rng.u64_block(3)
        assert row == rng.u64_block(count).tolist()


def test_u64_blocks_rejects_negative_count():
    with pytest.raises(ValueError):
        u64_blocks([1, 2], -1)
    with pytest.raises(ValueError):
        Rng(1).u64_block(-1)



@pytest.mark.parametrize("seed", [0, 3, 2**63 - 1])
def test_numpy_integer_seeds_give_the_python_int_streams(seed):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no uint64 wraparound warning either
        for wrapped in (np.int64(seed), np.uint64(seed)):
            assert mix64(wrapped) == mix64(seed)
            assert substream(wrapped, wrapped) == substream(seed, seed)
            assert substreams(wrapped, [1, 5]).tolist() == substreams(seed, [1, 5]).tolist()
            drawn = Rng(wrapped)
            assert type(drawn.key) is int
            assert [drawn.u64() for _ in range(3)] == Rng(seed).u64_block(3).tolist()


@pytest.mark.parametrize("bad", [1.5, 3.0, "3"])
def test_non_integer_seeds_and_labels_are_refused(bad):
    for call in (lambda: Rng(bad), lambda: mix64(bad), lambda: substream(bad, 1), lambda: substream(1, bad),
                 lambda: substreams(bad, [1])):
        with pytest.raises(TypeError):
            call()


@pytest.mark.parametrize("labels", [[1.5], np.array([1.9]), ["3"], np.array([2.0, 3.0], dtype=np.float32),
                                    [2**64, 1.5]])
def test_substreams_refuse_non_integer_labels(labels):
    with pytest.raises(TypeError):
        substreams(1, labels)


def test_substreams_take_integer_and_bool_labels_of_any_dtype():
    for dtype in (np.int8, np.int32, np.int64, np.uint8, np.uint16, np.uint64):
        assert substreams(2, np.array([0, 5, 100], dtype=dtype)).tolist() == [substream(2, t) for t in (0, 5, 100)]
    signed = [-1, -2**63, 2**63 - 1]  # negative labels wrap mod 2**64, as in substream
    assert substreams(2, signed).tolist() == [substream(2, t) for t in signed]
    mixed = [-1, 2**64 - 1, 2**64 + 3]  # an object array
    assert substreams(2, mixed).tolist() == [substream(2, t) for t in mixed]
    assert substreams(2, [True, False]).tolist() == [substream(2, True), substream(2, False)]
    assert substreams(2, []).shape == (0,)


@pytest.mark.parametrize("bad", [2.5, 3.0, "3"])
def test_non_integer_counts_are_refused(bad):
    for call in (lambda: Rng(1).below(bad), lambda: Rng(1).u64_block(bad), lambda: u64_blocks([1], bad),
                 lambda: u64_blocks([1], 2, bad), lambda: permutations([1], bad), lambda: permutations([1], 3, bad)):
        with pytest.raises(TypeError):
            call()


def test_numpy_integer_counts_equal_plain_ints():
    assert Rng(1).below(np.int64(7)) == Rng(1).below(7)
    assert type(Rng(1).below(np.uint8(7))) is int
    assert u64_blocks([1], np.int64(3), np.uint8(2)).tolist() == u64_blocks([1], 3, 2).tolist()
    assert Rng(4).u64_block(np.int32(5)).tolist() == Rng(4).u64_block(5).tolist()
    assert permutations([1, 2], np.int64(5), np.int32(2)).tolist() == permutations([1, 2], 5, 2).tolist()
