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


@pytest.mark.parametrize("size", [0, 1, 2, 3, 20, 241, 17153])
@pytest.mark.parametrize("count", [1, 2, 3])
def test_permutations_match_scalar_permutations(size, count):
    keys = [0, 1, MASK64]
    vector = substreams(-5, range(3))
    for drawn_keys in (keys, vector):
        _assert_scalar_rows(drawn_keys, permutations(drawn_keys, size, count), size, count)


@pytest.mark.parametrize("size", [0, 1, 2, 20, 241, 17153])
@pytest.mark.parametrize("count", [1, 2, 3])
def test_permutations_block_loop_matches_scalar_permutations(monkeypatch, size, count):
    """Row counts (keys times count) just below, at and above the crossover
    from the scalar swaps to the swaps applied to every row at once."""
    calls = []
    unpatched = rng.apply_swaps

    def counting(items, swaps):
        calls.append(len(items))
        return unpatched(items, swaps)

    monkeypatch.setattr(rng, "apply_swaps", counting)
    crossover = rng._BLOCK_ROWS
    key_counts = sorted({(crossover - 1) // count, -(-crossover // count), -(-crossover // count) + 1})
    rows = [n * count for n in key_counts]
    assert rows[0] < crossover <= rows[1] and crossover <= rows[-1]
    for n in key_counts:
        keys = substreams(size, range(n))
        calls.clear()
        drawn = permutations(keys, size, count)
        assert len(calls) == (n * count if n * count < crossover else 0)
        _assert_scalar_rows(keys, drawn, size, count)


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
    for keys in ([9, 10, 11], list(range(9, 9 + rng._BLOCK_ROWS))):
        redraws.clear()
        drawn = permutations(keys, 50, 2)
        assert redraws == [10]
        _assert_scalar_rows(keys, drawn, 50, 2)


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
