"""Pinned bits of the literal coefficient formulas.

Every field of every breakdown that the public formula functions return
(``mul_coeffs_*`` and ``div_coeffs_*`` in ccw and cw, ``mul3_coeffs`` and
``div3_coeffs``), on seeded operands up to N = 600, hashed as IEEE bit
patterns: signed zeros and NaN payloads count.  The formulas are what the
audit measures, so a change to how they are run must keep every bit.  To
print the digest of the current code, run
``PYTHONPATH=src python tests/test_formula_bits.py``.
"""

import hashlib
import random
import struct

from hyperspace import coeff_formulas as cf, space3
from hyperspace.core import CartesianHC, Orientation, Space3

DIMS = (*range(2, 13), 65, 200, 600)
PAIRS = 3  # operand pairs a dimension
DIGEST = "c3c2fcd1667b9bc2f8d64e763ea1ce65d5fad968333ed42e9a8944bd3a68458a"


def operands(rng: random.Random, n: int) -> tuple[list[float], list[float]]:
    """Two numbers' n coefficients, each number of one magnitude in 10^[-2, 2]
    and some coefficients signed zeros; the second's leading coefficient is
    nonzero, so it is never a zero divisor."""
    pair = []
    for _ in range(2):
        scale = 10.0 ** rng.uniform(-2, 2)
        pair.append([rng.choice((0.0, -0.0)) if rng.random() < 0.05 else rng.uniform(-1, 1) * scale for _ in range(n)])
    pair[1][0] = pair[1][0] or 1.0
    return pair[0], pair[1]


def fields(bd) -> list[float]:
    """Every float of a breakdown, in field order."""
    if isinstance(bd, cf.CoeffBreakdown):
        subs = [x for m, chain in bd.sub_components for x in (m, *chain)]
        return [bd.a0, *bd.coeffs, *bd.thetas, *subs]
    return [bd.a, bd.b, bd.c, bd.theta, bd.c_r, bd.c_i]


def digest() -> str:
    h = hashlib.sha256()
    rng = random.Random(20070)
    for n in DIMS:
        for _ in range(PAIRS):
            s1, s2 = (CartesianHC(tuple(c)) for c in operands(rng, n))
            for f in (cf.mul_coeffs_general, cf.mul_coeffs_coordinate, cf.div_coeffs_general, cf.div_coeffs_coordinate):
                for o in (Orientation.ANTICLOCKWISE, Orientation.CLOCKWISE):
                    values = fields(f(s1, s2, o))
                    h.update(struct.pack(f"<{len(values)}d", *values))
    for _ in range(50):
        s1, s2 = (Space3(*c) for c in operands(rng, 3))
        for f in (space3.mul3_coeffs, space3.div3_coeffs):
            h.update(struct.pack("<6d", *fields(f(s1, s2))))
    return h.hexdigest()


def test_every_breakdown_field_keeps_its_bits():
    assert digest() == DIGEST


if __name__ == "__main__":
    print(digest())
