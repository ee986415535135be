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

Bounded draws use unbiased rejection sampling: draw 64-bit words until one
falls below ``2**64 - (2**64 % k)``, then reduce modulo ``k``.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """splitmix64 stream seeded with a 64-bit integer."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix(self._state)

    def randrange(self, k: int) -> int:
        """Uniform integer in [0, k), unbiased via rejection."""
        if k <= 0:
            raise ValueError("randrange bound must be positive")
        if k == 1:
            return 0
        limit = (1 << 64) - ((1 << 64) % k)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % k

    def coin(self) -> bool:
        return bool(self.next_u64() & 1)

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randrange(i + 1)
            items[i], items[j] = items[j], items[i]

    def permutation(self, k: int) -> list[int]:
        perm = list(range(k))
        self.shuffle(perm)
        return perm

    def geometric(self) -> int:
        """Number of successive heads before the first tail (mean 1)."""
        count = 0
        while self.coin():
            count += 1
        return count


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
