"""Deterministic 64-bit pseudo-random generator (splitmix64).

Instance generation must be bit-reproducible from a seed, across platforms
and across implementations of this tool in other languages.  Library RNGs
do not guarantee a stable stream, so the generator is pinned here explicitly.

State transition (all arithmetic mod 2**64)::

    state  = state + 0x9E3779B97F4A7C15
    z      = state
    z      = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z      = (z ^ (z >> 27)) * 0x94D049BB133111EB
    output = z ^ (z >> 31)

The state after ``k`` steps is ``seed + k * 0x9E3779B97F4A7C15``, so word
``k`` (counting from 1) is the mix of that sum alone and depends on no
earlier word.  :class:`SplitMix64` uses this to compute its words in blocks
of ``_BLOCK``, all in one Python int of 128-bit lanes, one word per lane.
A lane holds its word masked to 64 bits before each multiply, so a 64-by-64
bit product fits the lane and never carries into the next one; masking
after each multiply and each xor-shift drops the product's high half and
the bits a shift brings down from the next lane, so every lane wraps mod
2**64 exactly as the scalar recurrence does; the stream is word for word
the one above.

Bounded draws use unbiased rejection sampling: draw 64-bit words until one
falls below ``2**64 - (2**64 % k)``, then reduce modulo ``k``.
"""

from __future__ import annotations

import sys

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_BLOCK = 1024
_LANE = 128
_NBYTES = _BLOCK * _LANE // 8
_ONES = int.from_bytes((1).to_bytes(_LANE // 8, "little") * _BLOCK,
                       "little")                       # 1 in every lane
_LANES64 = _ONES * _MASK64                             # a lane's low 64 bits
# word k of a block is mix(state + k * golden), k = 1 .. _BLOCK; lane i
# holds word _BLOCK - i, so the lanes read out last word first
_STEPS = int.from_bytes(b"".join(
    ((_BLOCK - i) * _GOLDEN & _MASK64).to_bytes(_LANE // 8, "little")
    for i in range(_BLOCK)), "little")
_BLOCK_STEP = (_BLOCK * _GOLDEN) & _MASK64
# the lanes' low halves, in lane order, among the 64-bit words of the int's
# bytes written in a given byte order and read in that same order
_HALVES_BY_ORDER = {"little": slice(None, None, 2),
                    "big": slice(None, None, -2)}
_LOW_HALVES = _HALVES_BY_ORDER[sys.byteorder]

# _LIMITS[k] is the rejection limit 2**64 - (2**64 % k) for 0 < k < _SMALL,
# which covers almost every bound generation draws
_TWO64 = 1 << 64
_SMALL = 256
_LIMITS = (0,) + tuple(_TWO64 - _TWO64 % k for k in range(1, _SMALL))


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """splitmix64 stream seeded with a 64-bit integer."""

    __slots__ = ("_state", "_buf")

    def __init__(self, seed: int):
        self._state = seed & _MASK64
        # the unread words of the current block, last word first, so that
        # list.pop() hands them out in stream order
        self._buf: list[int] = []

    def _refill(self) -> None:
        z = (_ONES * self._state + _STEPS) & _LANES64
        z = (z ^ (z >> 30) & _LANES64) * _MIX1 & _LANES64
        z = (z ^ (z >> 27) & _LANES64) * _MIX2 & _LANES64
        z ^= z >> 31
        self._state = (self._state + _BLOCK_STEP) & _MASK64
        self._buf.extend(memoryview(z.to_bytes(_NBYTES, sys.byteorder))
                         .cast("Q")[_LOW_HALVES].tolist())

    def next_u64(self) -> int:
        buf = self._buf
        if not buf:
            self._refill()
        return buf.pop()

    def randrange(self, k: int) -> int:
        """Uniform integer in [0, k), unbiased via rejection."""
        if k <= 0:
            raise ValueError("randrange bound must be positive")
        if k == 1:
            return 0
        limit = _LIMITS[k] if k < _SMALL else _TWO64 - _TWO64 % k
        buf = self._buf
        while True:
            if not buf:
                self._refill()
            u = buf.pop()
            if u < limit:
                return u % k

    def coin(self) -> bool:
        buf = self._buf
        if not buf:
            self._refill()
        return bool(buf.pop() & 1)

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        buf = self._buf
        for i in range(len(items) - 1, 0, -1):
            k = i + 1
            limit = _LIMITS[k] if k < _SMALL else _TWO64 - _TWO64 % k
            while True:
                if not buf:
                    self._refill()
                u = buf.pop()
                if u < limit:
                    break
            j = u % k
            items[i], items[j] = items[j], items[i]

    def permutation(self, k: int) -> list[int]:
        perm = list(range(k))
        self.shuffle(perm)
        return perm

    def geometric(self) -> int:
        """Number of successive heads before the first tail (mean 1)."""
        buf = self._buf
        count = 0
        while True:
            if not buf:
                self._refill()
            if not buf.pop() & 1:
                return count
            count += 1


def derive_seed(seed: int, *parts: int) -> int:
    """Fold parts into a fresh 64-bit seed.

    The fold is order-sensitive: swapping two parts gives a different
    seed in general, so ``(n, g, rep)`` and ``(g, n, rep)`` name different
    substreams.

    Used to give every benchmark cell (n, g, rep) its own reproducible
    substream independent of iteration order.
    """
    state = _mix(seed & _MASK64)
    for p in parts:
        state = _mix(((state ^ (p & _MASK64)) + _GOLDEN) & _MASK64)
    return state
