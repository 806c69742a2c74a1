"""Three-dimensional space complex numbers in polar coordinates.

A number s = a + i*b + j*c combines a real part, a master imaginary part on
the classic complex plane C_xy, and a slave imaginary part on the third
axis.  The slave unit j is the composition of the two plane units (j = i *
i_j) and its powers cycle with period four: j^2 = -1, j^3 = -j, j^4 = 1.

Polar form uses a master argument theta (angle off the real axis, canonical
range [0, pi] because the in-plane radius sqrt(b^2 + c^2) is nonnegative)
and a slave argument phi (azimuth inside the imaginary plane, [0, 2*pi)).
This is the s3 chart of :mod:`hyperspace.core`, whose values are ``Space3``
and ``Space3Polar``; the 3D names below are the engine's own functions.  The
normative product/quotient act on the exponent form: moduli multiply and
both angles add.  The expanded coefficient formulas (``mul3_coeffs`` /
``div3_coeffs``) are evaluated literally for the audit harness and are not
used by the normative route.
"""

from __future__ import annotations

import math

from . import algebra, core
from .core import Space3, Space3Polar, _Frozen


class SlaveDecomposition(_Frozen):
    """Slave coefficient split against the master phase: c_r = c*cos(theta),
    c_i = c*sin(theta), so c_r^2 + c_i^2 = c^2."""

    __slots__ = _fields = ("c_r", "c_i")


ONE = Space3(1.0, 0.0, 0.0)
J_UNIT = Space3(0.0, 0.0, 1.0)


def j_pow(n: int) -> Space3:
    """The four-cycle of slave-unit powers: 1, j, -1, -j for n mod 4."""
    table = (ONE, J_UNIT, Space3(-1.0, 0.0, 0.0), Space3(0.0, 0.0, -1.0))
    return table[int(n) % 4]


to_polar3 = core.to_polar
from_polar3 = core.from_polar
conj3 = core.conjugate
mul3 = algebra.mul
div3 = algebra.div
from_dict3 = core.from_dict  # perfbench/run.py decodes audit reports with it


def slave_decompose(s: Space3) -> SlaveDecomposition:
    """Split the slave coefficient against the number's own master argument."""
    theta = to_polar3(s).theta
    return SlaveDecomposition(s.c * math.cos(theta), s.c * math.sin(theta))


def conj3_polar(p: Space3Polar) -> Space3Polar:
    """Conjugate chain (r, -theta, phi): negating the master angle negates
    both imaginary coefficients while the azimuth is untouched.  The chain is
    non-canonical for theta > 0; it exists so the conjugate identity
    s * conj(s) = |s|^2 can be evaluated at the angle level, where the master
    angles cancel exactly."""
    return Space3Polar(p.modulus, -p.theta, p.phi)


def pow_roots3(s: Space3 | Space3Polar, n: int) -> tuple[Space3, tuple[Space3, ...]]:
    """n-th power (angles scaled by n) and all n roots (angles
    (angle + 2*m*pi)/n for m = 0 ... n-1, applied to theta and phi alike)."""
    return algebra.pow_int(s, n), tuple(algebra.nth_roots(s, n))


class Space3Breakdown(_Frozen):
    """Literal output of the expanded coefficient formulas.

    ``a``, ``b``, ``c`` and ``theta`` are the raw formula values; ``c_r`` /
    ``c_i`` are the direct slave-component formulas (diagnostics -- on
    general operands they need not agree with c*e^(i*theta)).  ``assembled``
    folds the slave part to a coordinate triple: a half-turn of the master
    phase is extracted as a scalar sign (e^(i*theta) = -e^(i*(theta-pi)))
    and the residual rotation is absorbed, giving z = c * sign(cos theta).
    """

    __slots__ = _fields = ("a", "b", "c", "theta", "c_r", "c_i")

    @property
    def assembled(self) -> Space3:
        return Space3(*self.coordinates(math.cos, lambda p, x, y: x if p else y))

    def coordinates(self, cos, where) -> tuple:
        """``assembled``'s coordinates of floats, or of columns by ``mapped`` cos and ``np.where``."""
        return self.a, self.b, where(cos(self.theta) >= 0.0, self.c, -self.c)


def _mul3_coeffs(ev, c1, c2) -> Space3Breakdown:
    (a1, b1, z1), (a2, b2, z2) = c1, c2
    (t1, _), (t2, _) = ev.chains()
    (cos1, cos2), (sin1, sin2) = ev.trig([t1, t2])
    d1r, d1i, d2r, d2i = z1 * cos1, z1 * sin1, z2 * cos2, z2 * sin2  # slave_decompose
    r1 = ev.hypot(a1, b1)
    r2 = ev.hypot(a2, b2)
    a = a1 * a2 - b1 * b2 - d1r * d2r + d1i * d2i
    b = b1 * a2 + b2 * a1 - d1r * d2i - d1i * d2r
    c = z1 * r2 + z2 * r1
    c_r = d1r * a2 + d2r * a1 - d1i * b2 - d2i * b1
    c_i = d1i * a2 + d2i * a1 + d1r * b2 + d2r * b1
    return Space3Breakdown(a, b, c, t1 + t2, c_r, c_i)


def _div3_coeffs(ev, c1, c2) -> Space3Breakdown:
    inv = ev.inverse_square()
    (a1, b1, z1), (a2, b2, z2) = c1, c2
    (t1, _), (t2, _) = ev.chains()
    (cos1, cos2), (sin1, sin2) = ev.trig([t1, t2])
    d1r, d1i, d2r, d2i = z1 * cos1, z1 * sin1, z2 * cos2, z2 * sin2  # slave_decompose
    r1 = ev.hypot(a1, b1)
    r2 = ev.hypot(a2, b2)
    a = inv * (a1 * a2 + b1 * b2 + d1r * d2r + d1i * d2i)
    b = inv * (b1 * a2 - b2 * a1 + d1r * d2i - d1i * d2r)
    c = inv * (z1 * r2 - z2 * r1)
    c_r = (d1r * a2 - d2r * a1) + (d1i * b2 - d2i * b1)
    c_i = (d1i * a2 + d2i * a1) - (d1r * b2 + d2r * b1)
    return Space3Breakdown(a, b, c, t1 - t2, c_r, c_i)


def mul3_coeffs(s1: Space3, s2: Space3) -> Space3Breakdown:
    """Expanded product coefficients, evaluated literally (audit route) in the s3 chart.

    a = a1*a2 - b1*b2 - c1r*c2r + c1i*c2i
    b = b1*a2 + b2*a1 - c1r*c2i - c1i*c2r
    c = c1*r2 + c2*r1 with r_k = sqrt(a_k^2 + b_k^2)
    theta = theta1 + theta2
    c_r, c_i by the componentwise slave product.
    """
    return core._literal(_mul3_coeffs, s1, s2, core.Orientation.S3)


def div3_coeffs(s1: Space3, s2: Space3) -> Space3Breakdown:
    """Expanded quotient coefficients, evaluated literally (audit route) in the s3 chart.

    a = (a1*a2 + b1*b2 + c1r*c2r + c1i*c2i) / |s2|^2
    b = (b1*a2 - b2*a1 + c1r*c2i - c1i*c2r) / |s2|^2
    c = (c1*r2 - c2*r1) / |s2|^2
    theta = theta1 - theta2
    The b numerator follows the expansion (b1*a2 - b2*a1), which is the
    version consistent with the classic quotient on the c = 0 subplane.
    """
    return core._literal(_div3_coeffs, s1, s2, core.Orientation.S3)
