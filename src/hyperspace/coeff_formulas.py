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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (
    CartesianHC,
    Orientation,
    arguments,
    modulus,
    resolve_orientation,
)


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


def _theta_sums(
    s1: CartesianHC, s2: CartesianHC, o: Orientation
) -> tuple[float, ...]:
    t1 = arguments(s1, o)
    t2 = arguments(s2, o)
    return tuple(a + b for a, b in zip(t1, t2))


def _subs_acw(
    coeffs: tuple[float, ...], thetas: tuple[float, ...]
) -> tuple[tuple[float, tuple[float, ...]], ...]:
    return tuple((coeffs[k], thetas[:k]) for k in range(len(coeffs)))


def _subs_cw(
    coeffs: tuple[float, ...], thetas: tuple[float, ...]
) -> tuple[tuple[float, tuple[float, ...]], ...]:
    return tuple((coeffs[k], thetas[k + 1 :]) for k in range(len(coeffs)))


def _bracket_acw(cos_sum: list[float], k: int, n: int) -> float:
    # 1 + sum_{i=1}^{n-k-2} prod_{j=k+1}^{k+i} cos(tsum_j)
    total = 1.0
    running = 1.0
    for i in range(1, n - k - 1):
        running *= cos_sum[k + i]
        total += running
    return total


def _bracket_cw(cos_sum: list[float], k: int, n: int) -> float:
    # 1 + sum_{i=k+2}^{n-1} prod_{j=i-k-1}^{i} cos(tsum_j)
    total = 1.0
    for i in range(k + 2, n):
        prod = 1.0
        for j in range(i - k - 1, i + 1):
            prod *= cos_sum[j]
        total += prod
    return total


def mul_coeffs_general(
    s1: CartesianHC, s2: CartesianHC, orientation: Orientation
) -> CoeffBreakdown:
    """General product expansion with sine correction terms."""
    resolve_orientation(None, s1, s2)  # the operand-pair rule
    c1, c2 = s1.coeffs, s2.coeffs
    n = len(c1)
    tsum = _theta_sums(s1, s2, orientation)
    cos_sum = [0.0] + [math.cos(t) for t in tsum]  # 1-indexed
    sin_sum = [0.0] + [math.sin(t) for t in tsum]
    if orientation is Orientation.ANTICLOCKWISE:
        ps1, ps2 = _prefix_sq(c1), _prefix_sq(c2)
        a0 = c1[0] * c2[0] - c1[1] * c2[1]
        running = 1.0
        for k in range(2, n):
            running *= cos_sum[k - 1]
            a0 -= c1[k] * c2[k] * running
        coeffs = []
        for k in range(1, n):
            base = c1[k] * math.sqrt(ps2[k - 1]) + c2[k] * math.sqrt(ps1[k - 1])
            if k + 1 <= n - 1:
                base -= (
                    c1[k + 1]
                    * c2[k + 1]
                    * sin_sum[k]
                    * _bracket_acw(cos_sum, k, n)
                )
            coeffs.append(base)
        return CoeffBreakdown(
            a0, tuple(coeffs), tsum, _subs_acw(tuple(coeffs), tsum)
        )
    ss1, ss2 = _suffix_sq(c1), _suffix_sq(c2)
    a0 = c1[0] * c2[0] - c1[n - 1] * c2[n - 1]
    running = 1.0
    for k in range(n - 2, 0, -1):
        running *= cos_sum[k + 1]
        a0 -= c1[k] * c2[k] * running
    coeffs = []
    for k in range(1, n):
        base = c1[k] * math.sqrt(ss2[k + 1]) + c2[k] * math.sqrt(ss1[k + 1])
        if k >= 2:
            base -= c1[k - 1] * c2[k - 1] * sin_sum[k] * _bracket_cw(cos_sum, k, n)
        coeffs.append(base)
    return CoeffBreakdown(a0, tuple(coeffs), tsum, _subs_cw(tuple(coeffs), tsum))


def mul_coeffs_coordinate(
    s1: CartesianHC, s2: CartesianHC, orientation: Orientation
) -> CoeffBreakdown:
    """Coordinate-case product: a_0 = a_10*a_20 - sum(a_1k*a_2k), imaginary
    coefficients paired with the opposite operand's sub-modulus roots."""
    resolve_orientation(None, s1, s2)  # the operand-pair rule
    c1, c2 = s1.coeffs, s2.coeffs
    n = len(c1)
    tsum = _theta_sums(s1, s2, orientation)
    a0 = c1[0] * c2[0] - sum(c1[k] * c2[k] for k in range(1, n))
    if orientation is Orientation.ANTICLOCKWISE:
        ps1, ps2 = _prefix_sq(c1), _prefix_sq(c2)
        coeffs = tuple(
            c1[k] * math.sqrt(ps2[k - 1]) + c2[k] * math.sqrt(ps1[k - 1])
            for k in range(1, n)
        )
        return CoeffBreakdown(a0, coeffs, tsum, _subs_acw(coeffs, tsum))
    ss1, ss2 = _suffix_sq(c1), _suffix_sq(c2)
    coeffs = tuple(
        c1[k] * math.sqrt(ss2[k + 1]) + c2[k] * math.sqrt(ss1[k + 1])
        for k in range(1, n)
    )
    return CoeffBreakdown(a0, coeffs, tsum, _subs_cw(coeffs, tsum))


def div_coeffs_general(
    s1: CartesianHC, s2: CartesianHC, orientation: Orientation
) -> CoeffBreakdown:
    """General quotient expansion.  Note the combined argument is the *sum*
    theta_1k + theta_2k here, unlike the coordinate case below; both are
    evaluated exactly as written and the audit reports which one tracks the
    normative quotient."""
    resolve_orientation(None, s1, s2)  # the operand-pair rule
    m2 = modulus(s2)
    if m2 == 0.0:
        raise ZeroDivisionError("division by a zero-modulus number")
    inv = 1.0 / (m2 * m2)
    c1, c2 = s1.coeffs, s2.coeffs
    n = len(c1)
    tsum = _theta_sums(s1, s2, orientation)
    cos_sum = [0.0] + [math.cos(t) for t in tsum]
    sin_sum = [0.0] + [math.sin(t) for t in tsum]
    if orientation is Orientation.ANTICLOCKWISE:
        ps1, ps2 = _prefix_sq(c1), _prefix_sq(c2)
        acc = c1[0] * c2[0] + c1[1] * c2[1]
        running = 1.0
        for k in range(2, n):
            running *= cos_sum[k - 1]
            acc += c1[k] * c2[k] * running
        a0 = inv * acc
        coeffs = []
        for k in range(1, n):
            base = c1[k] * math.sqrt(ps2[k - 1]) - c2[k] * math.sqrt(ps1[k - 1])
            if k + 1 <= n - 1:
                base += (
                    c1[k + 1]
                    * c2[k + 1]
                    * sin_sum[k]
                    * _bracket_acw(cos_sum, k, n)
                )
            coeffs.append(inv * base)
        return CoeffBreakdown(
            a0, tuple(coeffs), tsum, _subs_acw(tuple(coeffs), tsum)
        )
    ss1, ss2 = _suffix_sq(c1), _suffix_sq(c2)
    acc = c1[0] * c2[0] + c1[n - 1] * c2[n - 1]
    running = 1.0
    for k in range(n - 2, 0, -1):
        running *= cos_sum[k + 1]
        acc += c1[k] * c2[k] * running
    a0 = inv * acc
    coeffs = []
    for k in range(1, n):
        base = c1[k] * math.sqrt(ss2[k + 1]) - c2[k] * math.sqrt(ss1[k + 1])
        if k >= 2:
            base += c1[k - 1] * c2[k - 1] * sin_sum[k] * _bracket_cw(cos_sum, k, n)
        coeffs.append(inv * base)
    return CoeffBreakdown(a0, tuple(coeffs), tsum, _subs_cw(tuple(coeffs), tsum))


def div_coeffs_coordinate(
    s1: CartesianHC, s2: CartesianHC, orientation: Orientation
) -> CoeffBreakdown:
    """Coordinate-case quotient; here the combined argument is the
    difference theta_1k - theta_2k."""
    resolve_orientation(None, s1, s2)  # the operand-pair rule
    m2 = modulus(s2)
    if m2 == 0.0:
        raise ZeroDivisionError("division by a zero-modulus number")
    inv = 1.0 / (m2 * m2)
    c1, c2 = s1.coeffs, s2.coeffs
    n = len(c1)
    t1 = arguments(s1, orientation)
    t2 = arguments(s2, orientation)
    tdiff = tuple(a - b for a, b in zip(t1, t2))
    a0 = inv * (c1[0] * c2[0] + sum(c1[k] * c2[k] for k in range(1, n)))
    if orientation is Orientation.ANTICLOCKWISE:
        ps1, ps2 = _prefix_sq(c1), _prefix_sq(c2)
        coeffs = tuple(
            inv * (c1[k] * math.sqrt(ps2[k - 1]) - c2[k] * math.sqrt(ps1[k - 1]))
            for k in range(1, n)
        )
        return CoeffBreakdown(a0, coeffs, tdiff, _subs_acw(coeffs, tdiff))
    ss1, ss2 = _suffix_sq(c1), _suffix_sq(c2)
    coeffs = tuple(
        inv * (c1[k] * math.sqrt(ss2[k + 1]) - c2[k] * math.sqrt(ss1[k + 1]))
        for k in range(1, n)
    )
    return CoeffBreakdown(a0, coeffs, tdiff, _subs_cw(coeffs, tdiff))
