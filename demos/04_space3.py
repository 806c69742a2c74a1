"""The three-dimensional system with a master and a slave angle.

s = a + i*b + j*c splits its direction into theta (tilt off the real axis)
and phi (azimuth inside the imaginary plane).  The slave unit j cycles with
period four like the classic i.  The normative product adds both angles;
the expanded coefficient formulas are a separate route that the audit
measures -- they genuinely disagree, most famously on i*j.
"""

import math

from hyperspace import (
    Space3,
    Space3Polar,
    conj3,
    div_polar,
    from_polar3,
    j_pow,
    modulus,
    mul3,
    mul_polar,
    pow_roots3,
    to_polar3,
)
from hyperspace.space3 import (
    conj3_polar,
    mul3_coeffs,
    slave_decompose,
)

# The slave unit's power cycle.
print("j^n for n = 0..7:", [j_pow(n) for n in range(8)])

# Master and slave arguments of a generic point.
s = Space3(1.0, 1.0, math.sqrt(2.0))
p = to_polar3(s)
print("s      =", s)
print("polar  =", p, " (theta = pi/3:", math.pi / 3, ")")
print("slave decomposition:", slave_decompose(s))

# Products: moduli multiply, both angles add.
t = Space3(0.5, -2.0, 1.0)
print("s * t  =", mul3(s, t))
print("|s||t| =", modulus(s) * modulus(t), "vs", modulus(mul3(s, t)))

# Quotient roundtrip composes at the angle level: the coordinate projection
# of an intermediate forgets its chain, so chained operations stay polar.
q = div_polar(to_polar3(s), to_polar3(t))
print("s/t*t  =", from_polar3(mul_polar(q, to_polar3(t))))

# Conjugation, evaluated at the angle level, recovers the squared modulus.
identity = from_polar3(mul_polar(p, conj3_polar(p)))
print("s*conj =", identity, " (|s|^2 =", modulus(s) ** 2, ")")
print("conj   =", conj3(s))

# Powers and roots de-Moivre style on both angles.
power, roots = pow_roots3(Space3Polar(1.0, math.pi / 3, 0.0), 3)
print("(e^(i*pi/3))^3 =", power)
print("square roots of 1:", pow_roots3(Space3(1, 0, 0), 2)[1])

# The two product routes split on i*j: the exponent form adds the master
# angles to a half turn (-1), the coefficient route keeps the slave axis
# and flips its sign (-j).  The audit records this; nothing hides it.
i_unit, j_unit = Space3(0, 1, 0), Space3(0, 0, 1)
print("i*j, exponent route    :", mul3(i_unit, j_unit))
print("i*j, coefficient route :", mul3_coeffs(i_unit, j_unit).assembled)
