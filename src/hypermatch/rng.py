"""Deterministic 64-bit randomness with labeled substreams.

The generator is counter based: draw number ``t`` of a stream keyed by
``seed`` is ``mix64(seed + t * GOLDEN)`` where :func:`mix64` is the
SplitMix64 finalizer. Identical seeds reproduce identical draws on every
platform, block draws match scalar draws bit for bit, and the stream for
``seed`` equals the reference SplitMix64 sequence started at ``seed``.

Substreams for labeled purposes (trial indices, pipeline stages, retry
counters) are derived by :func:`substream`, which pushes the (seed, label)
pair through the same finalizer. Distinct labels give unrelated streams, so
callers may draw from substreams concurrently without coordination.

:func:`substreams` derives many substream keys at once and :func:`u64_blocks`
draws words of many streams as one 2-D block, row r equal to stream r's
scalar draws; ``Rng.u64_block`` is its one-row case. :func:`permutations`
shuffles many streams from one block into one (streams, count, size) array,
with ``Rng.shuffle`` and :func:`apply_swaps` its scalar reference: a block of
few rows, however long, is shuffled by one sort of its swap targets
(:func:`_sort_shuffles`), a block of many rows applies each swap position to
every row at once.

Seeds, labels and counts are read with ``operator.index``, so numpy integers
give the streams of the equal Python ints and floats are refused.
"""

from __future__ import annotations

import operator

import numpy as np

MASK64 = 0xFFFFFFFFFFFFFFFF
GOLDEN = 0x9E3779B97F4A7C15  # odd, so multiplication by it is a bijection mod 2**64

_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB


def mix64(x: int) -> int:
    """SplitMix64 finalizer: a bijective avalanche on 64-bit words."""
    x = operator.index(x) & MASK64
    x = ((x ^ (x >> 30)) * _MUL1) & MASK64
    x = ((x ^ (x >> 27)) * _MUL2) & MASK64
    return x ^ (x >> 31)


def substream(seed: int, label: int) -> int:
    """Seed of the independent stream identified by (seed, label)."""
    return mix64(mix64(seed) ^ ((operator.index(label) & MASK64) * GOLDEN & MASK64))


def substreams(seed: int, labels) -> np.ndarray:
    """uint64 vector with ``substream(seed, label)`` for each integer or bool label."""
    x = np.asarray(labels)
    if x.dtype.kind not in "biu":  # Python ints that numpy reads as float or object pass; floats and strings raise
        x = np.array([operator.index(label) & MASK64 for label in labels], dtype=np.uint64)
    x = x.astype(np.uint64, copy=False) * np.uint64(GOLDEN)  # negative labels wrap mod 2**64, as in substream
    x ^= np.uint64(mix64(seed))
    return _mix64_array(x)


def u64_blocks(keys, count: int, start: int = 0) -> np.ndarray:
    """(len(keys), count) block whose row r holds draws start+1..start+count
    of the stream keyed by keys[r]: ``Rng(keys[r]).u64_block(count)`` when
    start is 0."""
    count, start = operator.index(count), operator.index(start)
    if count < 0:
        raise ValueError("count must be nonnegative")
    # the ticks are not held while mixing: one block-sized temporary, not two
    words = np.add.outer(np.asarray(keys, dtype=np.uint64),
                         np.arange(start + 1, start + count + 1, dtype=np.uint64) * np.uint64(GOLDEN))
    return _mix64_array(words)


def apply_swaps(items: list, swaps) -> list:
    """Fisher-Yates swaps in place, items[i] with items[swaps[len-1-i]] for
    i = len-1..1; returns items."""
    for i, j in zip(range(len(items) - 1, 0, -1), swaps):
        items[i], items[j] = items[j], items[i]
    return items


# rows from which permutations applies each swap to all rows at once: below
# it, one sort over the block's entries costs less than three numpy calls per
# position (crossover measured at 16-32 rows for size 20 and at about 64 for
# sizes 60-240 on a 2-core VM)
_BLOCK_ROWS = 64


def permutations(keys, size: int, count: int = 1) -> np.ndarray:
    """(len(keys), count, size) int64 array whose [r, c] row is draw c of
    ``Rng(keys[r]).permutation(size)``, all from one word block; the rows of
    a key holding a word within size of 2**64, where ``Rng.below`` may
    reject, are redrawn by ``Rng``. Blocks of fewer than _BLOCK_ROWS rows are
    shuffled by one sort (:func:`_sort_shuffles`), larger ones one position
    at a time over every row."""
    size, count = operator.index(size), operator.index(count)
    if count < 0:
        raise ValueError("count must be nonnegative")
    if size < 0:
        raise ValueError("size must be nonnegative")
    keys = np.asarray(keys, dtype=np.uint64)
    width = max(size - 1, 0)
    swaps = u64_blocks(keys, count * width).reshape(len(keys) * count, width)
    rejected = np.flatnonzero((swaps > np.uint64(MASK64 - size)).reshape(len(keys), count * width).any(axis=1))
    swaps %= np.arange(size, 1, -1, dtype=np.uint64)  # in place: one block-sized array less
    rows = len(swaps)
    if rows < _BLOCK_ROWS:
        perms = _sort_shuffles(swaps, size)
    else:
        # Fisher-Yates one position at a time over every row, on the
        # transposed block so that each position is one contiguous line
        lines = np.repeat(np.arange(size, dtype=np.int64)[:, None], rows, axis=1)
        flat = lines.reshape(-1)
        swaps *= np.uint64(rows)  # in place, to the flat index of (row, swapped position)
        swaps += np.arange(rows, dtype=np.uint64)[:, None]
        # viewed as int64 (the indices are below rows * size): numpy converts a uint64 index at every use
        for i, where in zip(range(size - 1, 0, -1), swaps.view(np.int64).T):
            held = flat[where]
            flat[where] = lines[i]
            lines[i] = held
        perms = lines.T  # splitting its row axis below makes no copy
    perms = perms.reshape(len(keys), count, size)
    for r in rejected.tolist():
        rng = Rng(int(keys[r]))
        perms[r] = [rng.permutation(size) for _ in range(count)]
    return perms


def _sort_shuffles(swaps: np.ndarray, size: int) -> np.ndarray:
    """(rows, size) int64 array whose row r is
    ``apply_swaps(list(range(size)), swaps[r])``, every row at once.

    Step i of a row (i = size-1 down to 1) swaps position i with its target
    t_i = swaps[r, size-1-i] <= i, and no later step touches position i; a
    no-op step 0 with t_0 = 0 comes last. So position i ends with the value
    t_i holds just before step i: t_i itself, unless a step above i targeted
    t_i, when it is V(g), g the next larger step on t_i. V(q), the value
    position q holds just before its own step, is likewise q, unless a step
    above q targets q, when it is V(f), f the least such step. One sort of
    the pairs (t_i, i) of every row (row r's positions offset by r * size)
    groups the steps by target in ascending order: g is the next entry of a
    group, f the first entry of group q other than q. V follows f to its end
    by pointer jumping (5 rounds at 17k entries).
    """
    rows = len(swaps)
    n = rows * size
    offsets = (np.arange(rows) * size)[:, None]
    target = np.empty((rows, size), dtype=np.int64)
    target[:, :1] = 0
    target[:, 1:] = swaps[:, ::-1]
    target += offsets
    # target << shift | step, below 2**63 for n < 2**31 entries
    shift = max(n - 1, 0).bit_length()
    pairs = target.reshape(-1) << shift
    del target
    pairs |= np.arange(n)
    pairs.sort()
    step = np.zeros(n + 1, dtype=np.int64)  # one slot more, so that step[1:] is each slot's next
    np.bitwise_and(pairs, (1 << shift) - 1, out=step[:n])
    following, step = step[1:], step[:n]
    target = np.right_shift(pairs, shift, out=pairs)
    bounds = np.ones(n + 1, dtype=bool)  # bounds[s]: slots s - 1 and s hold different targets
    np.not_equal(target[1:], target[:-1], out=bounds[1:n])
    last = bounds[1:]  # slot s holds its target's largest step; where not, following[s] is g of step[s]
    # jump[q] = f(q), or q itself where no step above q targets q
    jump = np.arange(n)
    first = np.flatnonzero(bounds[:n])
    jump[target[first]] = step[first]
    looped = np.flatnonzero(step == target)  # a step on itself is first on its target
    jump[step[looped]] = np.where(last[looped], step[looped], following[looped])
    active = np.flatnonzero(jump[jump] != jump)  # steps whose jump is not yet a chain's end
    while len(active):
        up = jump[jump[active]]
        jump[active] = up
        active = active[jump[up] != up]
    held = np.where(last, target, jump.take(following))  # the value each slot's step leaves
    del jump
    perms = target  # the targets are read: scatter the values over them
    perms[step] = held
    perms = perms.reshape(rows, size)
    perms -= offsets
    return perms


def _mix64_array(x: np.ndarray) -> np.ndarray:
    # in place; uint64 arithmetic wraps mod 2**64, matching mix64 exactly
    x ^= x >> np.uint64(30)
    x *= np.uint64(_MUL1)
    x ^= x >> np.uint64(27)
    x *= np.uint64(_MUL2)
    x ^= x >> np.uint64(31)
    return x


class Rng:
    """Counter-based stream of 64-bit words keyed by a seed.

    Every scalar draw advances the counter by one; block draws advance it
    by the block length and return exactly the words the scalar path would
    have produced.
    """

    __slots__ = ("key", "counter")

    def __init__(self, seed: int):
        self.key = operator.index(seed) & MASK64
        self.counter = 0

    def u64(self) -> int:
        self.counter += 1
        return mix64((self.key + self.counter * GOLDEN) & MASK64)

    def u64_block(self, count: int) -> np.ndarray:
        words = u64_blocks((self.key,), count, self.counter)[0]
        self.counter += count
        return words

    def uniform_block(self, count: int) -> np.ndarray:
        return (self.u64_block(count) >> np.uint64(11)) * 2.0**-53

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), unbiased via rejection."""
        n = operator.index(n)
        if n <= 0:
            raise ValueError("n must be positive")
        zone = (1 << 64) - ((1 << 64) % n)
        while True:
            x = self.u64()
            if x < zone:
                return x % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle: swap i with below(i + 1), i = len-1..1."""
        apply_swaps(items, [self.below(i + 1) for i in range(len(items) - 1, 0, -1)])

    def permutation(self, n: int) -> list[int]:
        if n < 0:
            raise ValueError("n must be nonnegative")
        items = list(range(n))
        self.shuffle(items)
        return items

    def choose(self, n: int, count: int) -> list[int]:
        """``count`` distinct integers from [0, n), deterministic in the stream."""
        if not 0 <= count <= n:
            raise ValueError("need 0 <= count <= n")
        items = list(range(n))
        for i in range(count):
            j = i + self.below(n - i)
            items[i], items[j] = items[j], items[i]
        return items[:count]
