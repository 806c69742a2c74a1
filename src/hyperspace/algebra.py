"""Normative arithmetic for N-dimensional space complex numbers.

Addition and subtraction act coefficientwise on the coordinate form.
Multiplication, division, integer powers and n-th roots are defined on the
polar form: moduli combine multiplicatively and angle chains add (or
subtract, or scale) componentwise.

The polar-level primitives (``mul_polar`` and friends) perform no
canonicalization, so the compositional identities of the system --
associativity, de Moivre power-vs-fold, division/multiplication round trips
-- hold there to floating-point accuracy.  The coordinate-form wrappers
(``mul`` and friends) accept operands in either representation, convert
Cartesian operands to canonical polar once, and project the result back to
coordinates.  Projecting and re-deriving canonical angles between successive
products is *not* the same thing as staying in polar form: the coordinate
projection is many-to-one for N >= 3, which is precisely what the audit
module measures.

Every operation is written once over all charts (see :mod:`hyperspace.core`)
and returns values of its operands' family: ``Space3``/``Space3Polar`` in,
``Space3``/``Space3Polar`` out.
"""

from __future__ import annotations

import math
import operator

from .core import (
    CartesianHC,
    Orientation,
    PolarHC,
    _Frozen,
    _cartesian,
    _polar,
    from_polar,
    resolve_orientation,
    to_polar,
)
HCNumber = CartesianHC | PolarHC
# Largest n that roots(e, n) and ``hsc roots`` accept: n roots are built.
MAX_ROOT_ORDER = 1000


class RootSet(_Frozen):
    """All n-th roots of a radicand, indexed m = 0 ... n-1.

    Each element, raised to the n-th power along its construction chain
    (``pow_int_polar`` on the matching ``nth_roots_polar`` entry), reproduces
    the radicand; the principal root (m = 0) also powers back directly from
    its coordinate form, since its chain is canonical.  For a nonzero
    radicand the elements are pairwise distinct.
    """

    __slots__ = _fields = ("roots",)

    def __init__(self, roots: tuple[CartesianHC, ...]) -> None:
        if not roots:
            raise ValueError("a root set holds at least one root")
        _Frozen.__init__(self, roots)

    def __len__(self) -> int:
        return len(self.roots)

    def __iter__(self):
        return iter(self.roots)

    def __getitem__(self, m: int) -> CartesianHC:
        return self.roots[m]


def add(s1: CartesianHC, s2: CartesianHC) -> CartesianHC:
    """Coefficientwise sum."""
    o = resolve_orientation(None, s1, s2)
    return _cartesian(o, tuple(map(operator.add, s1.coeffs, s2.coeffs)))


def negate(s: CartesianHC) -> CartesianHC:
    """Coefficientwise negation."""
    return _cartesian(s.orientation, tuple(map(operator.neg, s.coeffs)))


def sub(s1: CartesianHC, s2: CartesianHC) -> CartesianHC:
    """s1 - s2, i.e. add(s1, negate(s2))."""
    return add(s1, negate(s2))


def _polar_in(x: HCNumber, o: Orientation) -> PolarHC:
    return x if isinstance(x, PolarHC) else to_polar(x, o)


def as_polar(x: HCNumber, orientation: Orientation | None = None) -> PolarHC:
    """Polar view of ``x``: canonical conversion for Cartesian, pass-through
    for polar (the carried chain is preserved, not re-canonicalized)."""
    return _polar_in(x, resolve_orientation(orientation, x))


def mul_polar(p1: PolarHC, p2: PolarHC) -> PolarHC:
    """Moduli multiply, angle chains add; no canonicalization."""
    o = resolve_orientation(None, p1, p2)
    return _polar(
        o,
        p1.modulus * p2.modulus,
        tuple(map(operator.add, p1.angles, p2.angles)),
    )


def div_polar(p1: PolarHC, p2: PolarHC) -> PolarHC:
    """Moduli divide, angle chains subtract; raises on a zero divisor."""
    o = resolve_orientation(None, p1, p2)
    if p2.modulus == 0.0:
        raise ZeroDivisionError("division by a zero-modulus number")
    return _polar(
        o,
        p1.modulus / p2.modulus,
        tuple(map(operator.sub, p1.angles, p2.angles)),
    )


def pow_int_polar(p: PolarHC, n: int) -> PolarHC:
    """Modulus to the n-th power, every chain angle scaled by n."""
    n = int(n)
    if p.modulus == 0.0 and n < 0:
        raise ZeroDivisionError("negative power of a zero-modulus number")
    return _polar(
        p.orientation,
        math.pow(p.modulus, n),
        tuple(n * a for a in p.angles),
    )


def nth_roots_polar(p: PolarHC, n: int) -> tuple[PolarHC, ...]:
    """The n chains ((theta_k + 2*m*pi)/n for every k), m = 0 ... n-1."""
    n = int(n)
    if n < 1:
        raise ValueError(f"root order must be >= 1, got {n}")
    r = math.pow(p.modulus, 1.0 / n)
    out = []
    for m in range(n):
        shift = 2.0 * math.pi * m
        out.append(
            _polar(p.orientation, r, tuple((a + shift) / n for a in p.angles))
        )
    return tuple(out)


def mul(
    s1: HCNumber, s2: HCNumber, orientation: Orientation | None = None
) -> CartesianHC:
    """Product in coordinate form; the result modulus is |s1|*|s2|."""
    o = resolve_orientation(orientation, s1, s2)
    return from_polar(mul_polar(_polar_in(s1, o), _polar_in(s2, o)))


def div(
    s1: HCNumber, s2: HCNumber, orientation: Orientation | None = None
) -> CartesianHC:
    """Quotient in coordinate form; raises on a zero divisor."""
    o = resolve_orientation(orientation, s1, s2)
    return from_polar(div_polar(_polar_in(s1, o), _polar_in(s2, o)))


def pow_int(
    s: HCNumber, n: int, orientation: Orientation | None = None
) -> CartesianHC:
    """Integer power in coordinate form (negative n needs a nonzero modulus)."""
    return from_polar(pow_int_polar(as_polar(s, orientation), n))


def nth_roots(
    s: HCNumber, n: int, orientation: Orientation | None = None
) -> RootSet:
    """All n-th roots in coordinate form (roots of zero are all zero)."""
    chains = nth_roots_polar(as_polar(s, orientation), n)
    return RootSet(tuple(from_polar(p) for p in chains))
