"""Expanded Cartesian coefficient formulas for products and quotients.

These evaluators compute the coefficient-by-coefficient expansion of a
product or quotient directly from the operands' coordinates and component
arguments, exactly as the expansion is written: sub-modulus square roots
(which yield |a| rather than a signed value), sine correction terms and all.
They are *not* the normative route -- the angle-addition semantics in
:mod:`hyperspace.algebra` is -- and they disagree with it on parts of the
domain.  The audit harness exists to measure that disagreement; nothing here
feeds normative results.

Each operation comes in two flavours per orientation: the *general* form,
whose correction terms reference the component-argument sums, and the
*coordinate* form for plain-coefficient operands.  Correction terms that
would index a coefficient past the top axis do not occur (they only arise
for k <= N-2 anticlockwise, k >= 2 clockwise, matching the expansion), and
empty sums/products take their neutral values.

Each formula is one body ``f(ev, c1, c2)`` over per-axis sequences; the
evaluator ``ev`` supplies ``sqrt``, the operands' component arguments, their
cosines and sines, and 1/|s2|^2.  The functions below run it on floats
(``core._ScalarPair``), the audit on a block's columns
(``_columns.ColumnPair``), bit for bit alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add

from .core import CartesianHC, Orientation, _literal


@dataclass(frozen=True, slots=True)
class CoeffBreakdown:
    """Raw evaluator output: the real coefficient, the imaginary
    coefficients a_1..a_{N-1}, the combined component arguments, and the
    intermediate per-axis sub-numbers as (signed magnitude, phase chain)
    pairs."""

    a0: float
    coeffs: tuple[float, ...]
    thetas: tuple[float, ...]
    sub_components: tuple[tuple[float, tuple[float, ...]], ...]

    @property
    def assembled(self) -> CartesianHC:
        """Coordinate-form value: rotation factors attached to the imaginary
        units are absorbed, leaving the bare coefficients."""
        return CartesianHC((self.a0,) + self.coeffs)

    def coordinates(self, cos, where) -> tuple:  # Space3Breakdown's signature
        return (self.a0, *self.coeffs)


def _prefix_sq(c: tuple[float, ...]) -> list[float]:
    # ps[k] = a_0^2 + sum_{j=1}^{k} a_j^2
    ps = [c[0] * c[0]]
    for k in range(1, len(c)):
        ps.append(ps[-1] + c[k] * c[k])
    return ps


def _suffix_sq(c: tuple[float, ...]) -> list[float]:
    # ss[k] = a_0^2 + sum_{j=k}^{N-1} a_j^2, ss[N] = a_0^2
    n = len(c)
    ss = [0.0] * (n + 1)
    ss[n] = c[0] * c[0]
    for k in range(n - 1, 0, -1):
        ss[k] = ss[k + 1] + c[k] * c[k]
    return ss


def _bracket_acw(cos_sum: list[float], k: int, n: int) -> float:
    # 1 + sum_{i=1}^{n-k-2} prod_{j=k+1}^{k+i} cos(tsum_j)
    total = 1.0
    running = 1.0
    for i in range(1, n - k - 1):
        running = running * cos_sum[k + i]
        total = total + running
    return total


def _bracket_cw(cos_sum: list[float], k: int, n: int) -> float:
    # 1 + sum_{i=k+2}^{n-1} prod_{j=i-k-1}^{i} cos(tsum_j)
    total = 1.0
    for i in range(k + 2, n):
        prod = 1.0
        for j in range(i - k - 1, i + 1):
            prod = prod * cos_sum[j]
        total = total + prod
    return total


def _breakdown(ev, a0, coeffs, thetas) -> CoeffBreakdown:
    """The breakdown, each sub-number's phase chain the arguments below its
    axis (anticlockwise) or above it (clockwise)."""
    coeffs, thetas = tuple(coeffs), tuple(thetas)
    ccw = ev.o is Orientation.ANTICLOCKWISE
    subs = tuple((x, thetas[:k] if ccw else thetas[k + 1 :]) for k, x in enumerate(coeffs))
    return CoeffBreakdown(a0, coeffs, thetas, subs)


def _mul_general(ev, c1, c2) -> CoeffBreakdown:
    n = len(c1)
    tsum = [a + b for a, b in zip(*ev.chains())]
    cos_sum, sin_sum = ([0.0] + x for x in ev.trig(tsum))  # 1-indexed
    if ev.o is Orientation.ANTICLOCKWISE:
        ps1, ps2 = _prefix_sq(c1), _prefix_sq(c2)
        a0 = c1[0] * c2[0] - c1[1] * c2[1]
        running = 1.0
        for k in range(2, n):
            running = running * cos_sum[k - 1]
            a0 = a0 - c1[k] * c2[k] * running
        coeffs = []
        for k in range(1, n):
            base = c1[k] * ev.sqrt(ps2[k - 1]) + c2[k] * ev.sqrt(ps1[k - 1])
            if k + 1 <= n - 1:
                base = base - c1[k + 1] * c2[k + 1] * sin_sum[k] * _bracket_acw(cos_sum, k, n)
            coeffs.append(base)
        return _breakdown(ev, a0, coeffs, tsum)
    ss1, ss2 = _suffix_sq(c1), _suffix_sq(c2)
    a0 = c1[0] * c2[0] - c1[n - 1] * c2[n - 1]
    running = 1.0
    for k in range(n - 2, 0, -1):
        running = running * cos_sum[k + 1]
        a0 = a0 - c1[k] * c2[k] * running
    coeffs = []
    for k in range(1, n):
        base = c1[k] * ev.sqrt(ss2[k + 1]) + c2[k] * ev.sqrt(ss1[k + 1])
        if k >= 2:
            base = base - c1[k - 1] * c2[k - 1] * sin_sum[k] * _bracket_cw(cos_sum, k, n)
        coeffs.append(base)
    return _breakdown(ev, a0, coeffs, tsum)


def _mul_coordinate(ev, c1, c2) -> CoeffBreakdown:
    n = len(c1)
    tsum = [a + b for a, b in zip(*ev.chains())]
    # reduce(add), not sum(): from Python 3.12 on, sum() of floats compensates and of arrays does not
    a0 = c1[0] * c2[0] - reduce(add, (c1[k] * c2[k] for k in range(1, n)), 0)
    if ev.o is Orientation.ANTICLOCKWISE:
        ps1, ps2 = _prefix_sq(c1), _prefix_sq(c2)
        coeffs = [c1[k] * ev.sqrt(ps2[k - 1]) + c2[k] * ev.sqrt(ps1[k - 1]) for k in range(1, n)]
        return _breakdown(ev, a0, coeffs, tsum)
    ss1, ss2 = _suffix_sq(c1), _suffix_sq(c2)
    coeffs = [c1[k] * ev.sqrt(ss2[k + 1]) + c2[k] * ev.sqrt(ss1[k + 1]) for k in range(1, n)]
    return _breakdown(ev, a0, coeffs, tsum)


def _div_general(ev, c1, c2) -> CoeffBreakdown:
    inv = ev.inverse_square()
    n = len(c1)
    tsum = [a + b for a, b in zip(*ev.chains())]
    cos_sum, sin_sum = ([0.0] + x for x in ev.trig(tsum))
    if ev.o is Orientation.ANTICLOCKWISE:
        ps1, ps2 = _prefix_sq(c1), _prefix_sq(c2)
        acc = c1[0] * c2[0] + c1[1] * c2[1]
        running = 1.0
        for k in range(2, n):
            running = running * cos_sum[k - 1]
            acc = acc + c1[k] * c2[k] * running
        a0 = inv * acc
        coeffs = []
        for k in range(1, n):
            base = c1[k] * ev.sqrt(ps2[k - 1]) - c2[k] * ev.sqrt(ps1[k - 1])
            if k + 1 <= n - 1:
                base = base + c1[k + 1] * c2[k + 1] * sin_sum[k] * _bracket_acw(cos_sum, k, n)
            coeffs.append(inv * base)
        return _breakdown(ev, a0, coeffs, tsum)
    ss1, ss2 = _suffix_sq(c1), _suffix_sq(c2)
    acc = c1[0] * c2[0] + c1[n - 1] * c2[n - 1]
    running = 1.0
    for k in range(n - 2, 0, -1):
        running = running * cos_sum[k + 1]
        acc = acc + c1[k] * c2[k] * running
    a0 = inv * acc
    coeffs = []
    for k in range(1, n):
        base = c1[k] * ev.sqrt(ss2[k + 1]) - c2[k] * ev.sqrt(ss1[k + 1])
        if k >= 2:
            base = base + c1[k - 1] * c2[k - 1] * sin_sum[k] * _bracket_cw(cos_sum, k, n)
        coeffs.append(inv * base)
    return _breakdown(ev, a0, coeffs, tsum)


def _div_coordinate(ev, c1, c2) -> CoeffBreakdown:
    inv = ev.inverse_square()
    n = len(c1)
    tdiff = [a - b for a, b in zip(*ev.chains())]
    a0 = inv * (c1[0] * c2[0] + reduce(add, (c1[k] * c2[k] for k in range(1, n)), 0))
    if ev.o is Orientation.ANTICLOCKWISE:
        ps1, ps2 = _prefix_sq(c1), _prefix_sq(c2)
        coeffs = [inv * (c1[k] * ev.sqrt(ps2[k - 1]) - c2[k] * ev.sqrt(ps1[k - 1])) for k in range(1, n)]
        return _breakdown(ev, a0, coeffs, tdiff)
    ss1, ss2 = _suffix_sq(c1), _suffix_sq(c2)
    coeffs = [inv * (c1[k] * ev.sqrt(ss2[k + 1]) - c2[k] * ev.sqrt(ss1[k + 1])) for k in range(1, n)]
    return _breakdown(ev, a0, coeffs, tdiff)


def mul_coeffs_general(s1: CartesianHC, s2: CartesianHC, orientation: Orientation) -> CoeffBreakdown:
    """General product expansion with sine correction terms."""
    return _literal(_mul_general, s1, s2, orientation)


def mul_coeffs_coordinate(s1: CartesianHC, s2: CartesianHC, orientation: Orientation) -> CoeffBreakdown:
    """Coordinate-case product: a_0 = a_10*a_20 - sum(a_1k*a_2k), imaginary
    coefficients paired with the opposite operand's sub-modulus roots."""
    return _literal(_mul_coordinate, s1, s2, orientation)


def div_coeffs_general(s1: CartesianHC, s2: CartesianHC, orientation: Orientation) -> CoeffBreakdown:
    """General quotient expansion.  Note the combined argument is the *sum*
    theta_1k + theta_2k here, unlike the coordinate case below; both are
    evaluated exactly as written and the audit reports which one tracks the
    normative quotient."""
    return _literal(_div_general, s1, s2, orientation)


def div_coeffs_coordinate(s1: CartesianHC, s2: CartesianHC, orientation: Orientation) -> CoeffBreakdown:
    """Coordinate-case quotient; here the combined argument is the
    difference theta_1k - theta_2k."""
    return _literal(_div_coordinate, s1, s2, orientation)
