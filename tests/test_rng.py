"""splitmix64 stream: published values and draw-for-draw parity.

``SplitMix64`` computes its words in blocks, one 128-bit lane of a Python
int per word.  The reference here is the scalar counter form of the same
stream, word k = mix(seed + k * golden) mod 2**64, with every bounded draw
written out word by word, so a block boundary, a wrap-around or a rejected
word that the blocks get wrong shows as a mismatch.
"""

import struct

import pytest

from lexpref.rng import (_BLOCK, _GOLDEN, _HALVES_BY_ORDER, _MASK64, _NBYTES,
                         SplitMix64, _mix)


class Reference:
    """Scalar splitmix64 with the draw rules spelled out."""

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self.k = 0

    def next_u64(self) -> int:
        self.k += 1
        return _mix((self.seed + self.k * _GOLDEN) & _MASK64)

    def randrange(self, k: int) -> int:
        if k == 1:
            return 0    # no word is drawn
        limit = (1 << 64) - (1 << 64) % k
        while True:
            u = self.next_u64()
            if u < limit:
                return u % k

    def coin(self) -> bool:
        return bool(self.next_u64() & 1)

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.randrange(i + 1)
            items[i], items[j] = items[j], items[i]

    def geometric(self) -> int:
        count = 0
        while self.coin():
            count += 1
        return count


def test_published_values_for_seed_zero():
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f]


# the last seed's counter passes 0 mod 2**64 at word 500, in the first block
@pytest.mark.parametrize("seed", [0, 1, 101, -1, 1 << 63,
                                  (-500 * _GOLDEN) & _MASK64])
def test_words_match_the_counter_form(seed):
    rng, ref = SplitMix64(seed), Reference(seed)
    count = 3 * _BLOCK + 7
    assert [rng.next_u64() for _ in range(count)] == \
        [ref.next_u64() for _ in range(count)]


@pytest.mark.parametrize("seed", [5, 101])
def test_draws_match_across_block_boundaries(seed):
    rng, ref = SplitMix64(seed), Reference(seed)
    huge = 2 ** 63 + 1    # about half of all words are rejected
    for step in range(3 * _BLOCK):
        op = step % 6
        if op == 0:
            k = 1 + step % 700
            assert rng.randrange(k) == ref.randrange(k)
        elif op == 1:
            assert rng.coin() == ref.coin()
        elif op == 2:
            assert rng.geometric() == ref.geometric()
        elif op == 3:
            items, want = list(range(step % 300)), list(range(step % 300))
            rng.shuffle(items)
            ref.shuffle(want)
            assert items == want
        elif op == 4:
            assert rng.randrange(huge) == ref.randrange(huge)
        else:
            assert rng.next_u64() == ref.next_u64()
    # both streams consumed the same number of words
    assert rng.next_u64() == ref.next_u64()
    assert ref.k > 3 * _BLOCK


@pytest.mark.parametrize("order", ["little", "big"])
def test_low_halves_read_in_lane_order_on_either_byte_order(order):
    # lane i holds i in its low half and a marker in its high half
    z = sum((i | (_MASK64 - i) << 64) << 128 * i for i in range(_BLOCK))
    words = struct.unpack(f"{'<' if order == 'little' else '>'}"
                          f"{_NBYTES // 8}Q", z.to_bytes(_NBYTES, order))
    assert list(words[_HALVES_BY_ORDER[order]]) == list(range(_BLOCK))


def test_permutation_is_a_shuffled_range():
    rng, ref = SplitMix64(9), Reference(9)
    want = list(range(2 * _BLOCK))
    ref.shuffle(want)
    assert rng.permutation(2 * _BLOCK) == want


def test_randrange_rejects_a_non_positive_bound():
    rng = SplitMix64(0)
    for k in (0, -3):
        with pytest.raises(ValueError):
            rng.randrange(k)
    assert rng.randrange(1) == 0
    assert rng.next_u64() == 0xe220a8397b1dcdaf    # bound 1 draws no word
