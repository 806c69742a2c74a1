"""Expanded Cartesian coefficient formulas for products and quotients.

These evaluators compute the coefficient-by-coefficient expansion of a
product or quotient directly from the operands' coordinates and component
arguments, exactly as the expansion is written: sub-modulus square roots
(which yield |a| rather than a signed value), sine correction terms and all.
They are *not* the normative route -- the angle-addition semantics in
:mod:`hyperspace.algebra` is -- and they disagree with it on parts of the
domain.  The audit harness exists to measure that disagreement; nothing here
feeds normative results.

Each operation comes in two flavours per orientation, ccw or cw (the s3
chart's formulas are :mod:`hyperspace.space3`'s): the *general* form, whose
correction terms reference the component-argument sums, and the
*coordinate* form for plain-coefficient operands.  Correction terms that
would index a coefficient past the top axis do not occur (they only arise
for k <= N-2 anticlockwise, k >= 2 clockwise, matching the expansion), and
empty sums/products take their neutral values.

Each formula is one body ``f(ev, c1, c2)`` over per-axis sequences; the
evaluator ``ev`` supplies ``sqrt``, the operands' component arguments, their
cosines and sines, 1/|s2|^2, an operation axis by axis (``each``) and the
running values of a sum, difference or product down the axes (``running``),
and a sequence of ones (``ones``).  It returns the coefficients and the
combined arguments; a sub-number's phase chain is a slice of the latter
(``CoeffBreakdown``).  The functions below run it on floats
(``core._ScalarPair``, in the chart ``core._literal`` decides once), the
audit on a block's columns (``_columns.ColumnPair``), bit for bit alike.
The general forms cost O(N^2) operations in either orientation, their
correction brackets summing O(N) running products of cosines each; the
coordinate forms O(N).
"""

from __future__ import annotations

from operator import add, mul, sub

from .core import CartesianHC, Orientation, _Frozen, _literal


class CoeffBreakdown(_Frozen):
    """Raw evaluator output: the real coefficient ``a0``, the imaginary
    coefficients a_1..a_{N-1} (``coeffs``) and the combined component
    arguments (``thetas``).  Sub-number k is signed magnitude ``coeffs[k]``
    with phase chain ``thetas[:k]`` anticlockwise, ``thetas[k+1:]``
    clockwise: the arguments below its axis, or above it."""

    __slots__ = _fields = ("a0", "coeffs", "thetas")

    @property
    def assembled(self) -> CartesianHC:
        """Coordinate-form value: rotation factors attached to the imaginary
        units are absorbed, leaving the bare coefficients."""
        return CartesianHC((self.a0,) + self.coeffs)

    def coordinates(self, cos, where) -> tuple:  # Space3Breakdown's signature
        return (self.a0, *self.coeffs)


def _sub_squares(ev, c):
    """The squared sub-moduli paired with a_1 ... a_{N-1}: a_0^2 + a_1^2 + ... +
    a_{k-1}^2 anticlockwise, a_0^2 + a_{N-1}^2 + ... + a_{k+1}^2 clockwise,
    each added in that order."""
    if ev.o is Orientation.ANTICLOCKWISE:
        return ev.running(add, c[0] * c[0], ev.each(lambda x: x * x, c[1:-1]))
    return ev.running(add, c[0] * c[0], ev.each(lambda x: x * x, c[:1:-1]))[::-1]


def _a0(ev, c1, c2, cos, op):
    """The general a_0's sum: a_10*a_20 op a_1k*a_2k*prod cos(tsum_j) for each
    axis k in turn, j over the axes passed, from the bottom (anticlockwise)
    or from the top (clockwise)."""
    if ev.o is Orientation.ANTICLOCKWISE:
        x, y = c1[1:], c2[1:]
    else:
        x, y, cos = c1[:0:-1], c2[:0:-1], cos[::-1]
    terms = ev.each(lambda p, q, r: p * q * r, x[1:], y[1:], ev.running(mul, 1.0, cos[:-1])[1:])
    return ev.running(op, op(c1[0] * c2[0], x[0] * y[0]), terms)[-1]


def _brackets_acw(ev, cos):
    # k = 1 ... N-2: 1 + sum_{i=1}^{N-k-2} prod_{j=k+1}^{k+i} cos(tsum_j), cos[j-1] = cos(tsum_j).
    # Step i extends every window still growing by one factor and adds it in.
    m = len(cos) - 1
    brackets, windows = ev.ones(m), ev.ones(m)
    for i in range(1, m):
        windows[: m - i] = ev.each(mul, windows[: m - i], cos[i:m])
        brackets[: m - i] = ev.each(add, brackets[: m - i], windows[: m - i])
    return brackets


def _brackets_cw(ev, cos):
    # k = 2 ... N-1: 1 + sum_{i=k+2}^{N-1} prod_{j=i-k-1}^{i} cos(tsum_j), cos[j-1] = cos(tsum_j).
    # The window from s = i-k-1 is element k+2 of the running product from j = s,
    # so each start's products add into every bracket they reach, starts ascending.
    m = len(cos) - 1
    brackets = ev.ones(m)
    for s in range(1, m - 1):
        brackets[: m - 1 - s] = ev.each(add, brackets[: m - 1 - s], ev.running(mul, 1.0, cos[s - 1 :])[4:])
    return brackets


def _corrections(ev, base, c1, c2, cos, sin):
    """The general coefficients' sine corrections: the base coefficients
    that take one and its factors a_1j, a_2j, sin(tsum_k) and bracket, for
    k = 1 ... N-2 with j = k+1 (anticlockwise) or k = 2 ... N-1 with j = k-1
    (clockwise)."""
    if ev.o is Orientation.ANTICLOCKWISE:
        return base[:-1], c1[2:], c2[2:], sin[:-1], _brackets_acw(ev, cos)
    return base[1:], c1[1:-1], c2[1:-1], sin[1:], _brackets_cw(ev, cos)


def _mul_general(ev, c1, c2) -> CoeffBreakdown:
    tsum = ev.each(add, *ev.chains())
    cos, sin = ev.trig(tsum)  # cos[k-1] = cos(tsum_k)
    r1, r2 = _sub_squares(ev, c1), _sub_squares(ev, c2)
    base = ev.each(lambda x, y, p, q: x * ev.sqrt(q) + y * ev.sqrt(p), c1[1:], c2[1:], r1, r2)
    fixed = ev.each(lambda b, x, y, s, r: b - x * y * s * r, *_corrections(ev, base, c1, c2, cos, sin))
    coeffs = [*fixed, base[-1]] if ev.o is Orientation.ANTICLOCKWISE else [base[0], *fixed]
    return CoeffBreakdown(_a0(ev, c1, c2, cos, sub), tuple(coeffs), tuple(tsum))


def _mul_coordinate(ev, c1, c2) -> CoeffBreakdown:
    tsum = ev.each(add, *ev.chains())
    a0 = c1[0] * c2[0] - ev.running(add, 0.0, ev.each(mul, c1[1:], c2[1:]))[-1]
    r1, r2 = _sub_squares(ev, c1), _sub_squares(ev, c2)
    coeffs = ev.each(lambda x, y, p, q: x * ev.sqrt(q) + y * ev.sqrt(p), c1[1:], c2[1:], r1, r2)
    return CoeffBreakdown(a0, tuple(coeffs), tuple(tsum))


def _div_general(ev, c1, c2) -> CoeffBreakdown:
    inv = ev.inverse_square()
    tsum = ev.each(add, *ev.chains())
    cos, sin = ev.trig(tsum)  # cos[k-1] = cos(tsum_k)
    r1, r2 = _sub_squares(ev, c1), _sub_squares(ev, c2)
    base = ev.each(lambda x, y, p, q: x * ev.sqrt(q) - y * ev.sqrt(p), c1[1:], c2[1:], r1, r2)
    fixed = ev.each(lambda b, x, y, s, r: inv * (b + x * y * s * r), *_corrections(ev, base, c1, c2, cos, sin))
    coeffs = [*fixed, inv * base[-1]] if ev.o is Orientation.ANTICLOCKWISE else [inv * base[0], *fixed]
    return CoeffBreakdown(inv * _a0(ev, c1, c2, cos, add), tuple(coeffs), tuple(tsum))


def _div_coordinate(ev, c1, c2) -> CoeffBreakdown:
    inv = ev.inverse_square()
    tdiff = ev.each(sub, *ev.chains())
    a0 = inv * (c1[0] * c2[0] + ev.running(add, 0.0, ev.each(mul, c1[1:], c2[1:]))[-1])
    r1, r2 = _sub_squares(ev, c1), _sub_squares(ev, c2)
    coeffs = ev.each(lambda x, y, p, q: inv * (x * ev.sqrt(q) - y * ev.sqrt(p)), c1[1:], c2[1:], r1, r2)
    return CoeffBreakdown(a0, tuple(coeffs), tuple(tdiff))


def _nd_chart(orientation: Orientation) -> Orientation:
    """The requested chart, ccw or cw; operands bound to another raise in ``_literal``."""
    if Orientation.check(orientation) is Orientation.S3:
        raise ValueError("no N-dimensional formula runs in the s3 chart: its formulas are space3's")
    return orientation


def mul_coeffs_general(s1: CartesianHC, s2: CartesianHC, orientation: Orientation) -> CoeffBreakdown:
    """General product expansion with sine correction terms; O(N^2)
    operations, clockwise as anticlockwise."""
    return _literal(_mul_general, s1, s2, _nd_chart(orientation))


def mul_coeffs_coordinate(s1: CartesianHC, s2: CartesianHC, orientation: Orientation) -> CoeffBreakdown:
    """Coordinate-case product: a_0 = a_10*a_20 - sum(a_1k*a_2k), imaginary
    coefficients paired with the opposite operand's sub-modulus roots."""
    return _literal(_mul_coordinate, s1, s2, _nd_chart(orientation))


def div_coeffs_general(s1: CartesianHC, s2: CartesianHC, orientation: Orientation) -> CoeffBreakdown:
    """General quotient expansion.  Note the combined argument is the *sum*
    theta_1k + theta_2k here, unlike the coordinate case below; both are
    evaluated exactly as written and the audit reports which one tracks the
    normative quotient.  O(N^2) operations, clockwise as anticlockwise."""
    return _literal(_div_general, s1, s2, _nd_chart(orientation))


def div_coeffs_coordinate(s1: CartesianHC, s2: CartesianHC, orientation: Orientation) -> CoeffBreakdown:
    """Coordinate-case quotient; here the combined argument is the
    difference theta_1k - theta_2k."""
    return _literal(_div_coordinate, s1, s2, _nd_chart(orientation))
