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
with ``Rng.shuffle`` and :func:`apply_swaps` its scalar reference: a long
stream runs the scalar swaps, a block of many rows applies each swap position
to every row at once.
"""

from __future__ import annotations

import numpy as np

MASK64 = 0xFFFFFFFFFFFFFFFF
GOLDEN = 0x9E3779B97F4A7C15  # odd, so multiplication by it is a bijection mod 2**64

_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB


def mix64(x: int) -> int:
    """SplitMix64 finalizer: a bijective avalanche on 64-bit words."""
    x &= MASK64
    x = ((x ^ (x >> 30)) * _MUL1) & MASK64
    x = ((x ^ (x >> 27)) * _MUL2) & MASK64
    return x ^ (x >> 31)


def substream(seed: int, label: int) -> int:
    """Seed of the independent stream identified by (seed, label)."""
    return mix64(mix64(seed) ^ ((label & MASK64) * GOLDEN & MASK64))


def substreams(seed: int, labels) -> np.ndarray:
    """uint64 vector with ``substream(seed, label)`` for each label in [0, 2**64)."""
    x = np.asarray(labels, dtype=np.uint64) * np.uint64(GOLDEN)
    x ^= np.uint64(mix64(seed))
    return _mix64_array(x)


def u64_blocks(keys, count: int, start: int = 0) -> np.ndarray:
    """(len(keys), count) block whose row r holds draws start+1..start+count
    of the stream keyed by keys[r]: ``Rng(keys[r]).u64_block(count)`` when
    start is 0."""
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
# it, three numpy calls per position cost more than the scalar swaps they
# replace (crossover measured at 16-32 rows for sizes 20-241 on a 2-core VM)
_BLOCK_ROWS = 24


def permutations(keys, size: int, count: int = 1) -> np.ndarray:
    """(len(keys), count, size) int64 array whose [r, c] row is draw c of
    ``Rng(keys[r]).permutation(size)``, all from one word block; the rows of
    a key holding a word within size of 2**64, where ``Rng.below`` may
    reject, are redrawn by ``Rng``."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    if size < 0:
        raise ValueError("size must be nonnegative")
    keys = np.asarray(keys, dtype=np.uint64)
    width = max(size - 1, 0)
    swaps = u64_blocks(keys, count * width).reshape(len(keys) * count, width)
    rejected = np.flatnonzero((swaps > np.uint64(MASK64 - size)).reshape(len(keys), -1).any(axis=1))
    swaps %= np.arange(size, 1, -1, dtype=np.uint64)  # in place: one block-sized array less
    rows = len(swaps)
    if rows < _BLOCK_ROWS:
        perms = np.array([apply_swaps(list(range(size)), row) for row in swaps.tolist()],
                         dtype=np.int64).reshape(rows, size)
    else:
        # Fisher-Yates one position at a time over every row, on the
        # transposed block so that each position is one contiguous line
        lines = np.repeat(np.arange(size, dtype=np.int64)[:, None], rows, axis=1)
        flat = lines.reshape(-1)
        swaps *= np.uint64(rows)  # in place, to the flat index of (row, swapped position)
        swaps += np.arange(rows, dtype=np.uint64)[:, None]
        for i, where in zip(range(size - 1, 0, -1), swaps.T):
            held = flat[where]
            flat[where] = lines[i]
            lines[i] = held
        perms = lines.T  # splitting its row axis below makes no copy
    perms = perms.reshape(len(keys), count, size)
    for r in rejected.tolist():
        rng = Rng(int(keys[r]))
        perms[r] = [rng.permutation(size) for _ in range(count)]
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
        self.key = seed & MASK64
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
