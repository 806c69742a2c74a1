"""The audit's 128-bit arithmetic on (high, low) uint64 pairs, against Python ints."""

import itertools
import random

import numpy as np

from hyperspace import audit

MASK64 = 2**64 - 1
EDGE_WORDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
WORDS = EDGE_WORDS + [random.Random(12).getrandbits(64) for _ in range(10)]
VALUES = [hi << 64 | lo for hi in EDGE_WORDS for lo in EDGE_WORDS] + \
    [random.Random(34).getrandbits(128) for _ in range(20)]


def words(ints):
    return np.array(ints, np.uint64)


def pair(ints):
    """128-bit ints as a (high, low) pair of uint64 arrays."""
    return words([v >> 64 for v in ints]), words([v & MASK64 for v in ints])


def ints(p):
    hi, lo = p
    return [h << 64 | l for h, l in zip(hi.tolist(), lo.tolist())]


def test_mul_hi_is_the_high_word_of_the_product():
    xs, ys = zip(*itertools.product(WORDS, repeat=2))
    assert audit._mul_hi(words(xs), words(ys)).tolist() == [x * y >> 64 for x, y in zip(xs, ys)]


def test_mul_is_the_product_mod_2_128():
    xs, ys = zip(*itertools.product(VALUES, repeat=2))
    assert ints(audit._mul(pair(xs), pair(ys))) == [x * y % 2**128 for x, y in zip(xs, ys)]


def test_add_is_the_sum_mod_2_128():
    xs, ys = zip(*itertools.product(VALUES, repeat=2))
    assert ints(audit._add(pair(xs), pair(ys))) == [(x + y) % 2**128 for x, y in zip(xs, ys)]


def test_a_low_word_sum_carries_into_the_high_word():
    x, y = [MASK64, 2**64 + 2**63, 2**128 - 1], [1, 2**63, 1]
    assert ints(audit._add(pair(x), pair(y))) == [2**64, 2**65, 0]


def test_pcg_jumps_are_the_multiplier_and_increment_powers():
    (a_hi, a_lo), (c_hi, c_lo) = audit._pcg_jumps(3)
    a, c = 1, 0
    want = []
    for _ in range(4):
        a, c = a * audit._PCG_MULT % 2**128, (c * audit._PCG_MULT + 1) % 2**128
        want.append((a, c))
    assert list(zip(ints((a_hi, a_lo)), ints((c_hi, c_lo)))) == want[1:]
