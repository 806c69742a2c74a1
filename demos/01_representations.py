"""Tour of the two representations and the conversions between them.

An N-dimensional space complex number is either a coefficient vector
(one real axis plus N-1 imaginary axes) or a modulus with a chain of
rotation angles.  The chain can be accumulated anticlockwise (from the
real axis up) or clockwise (from the top axis down).
"""

import math

from hyperspace import (
    CartesianHC,
    Orientation,
    PolarHC,
    arguments,
    conjugate,
    from_polar,
    modulus,
    to_polar,
)

ACW = Orientation.ANTICLOCKWISE
CW = Orientation.CLOCKWISE

# A 4-dimensional number, written in coordinates.
s = CartesianHC((1.0, 1.0, 1.0, 1.0))
print("s              =", s)
print("modulus        =", modulus(s))

# Its component arguments: the first angle is quadrant-resolved over the
# full turn, the later ones measure each coefficient against the modulus
# of everything below it and stay within a quarter turn of the equator.
print("arguments acw  =", [round(a, 6) for a in arguments(s, ACW)])
print("arguments cw   =", [round(a, 6) for a in arguments(s, CW)])

# Conversion round-trips in either orientation to the last bits: to_polar's
# modulus is within 0.5 ulp, and from_polar within 3 ulp of the modulus
# up to N = 8 (measured against 50-digit mpmath).
for orientation in (ACW, CW):
    p = to_polar(s, orientation)
    back = from_polar(p)
    print(f"round trip {orientation.value}: {back}")

# The polar type accepts any finite angle chain; the canonical form is
# what to_polar produces.  Both describe the same point.
wild = PolarHC(2.0, (0.4, 2.8, -1.1), ACW)
print("wild chain     =", wild, "->", from_polar(wild))
print("canonical      =", to_polar(from_polar(wild), ACW))

# Conjugation flips every imaginary coefficient; in polar terms it negates
# every chain angle.
print("conjugate      =", conjugate(s))
p = to_polar(s, ACW)
negated = PolarHC(p.modulus, tuple(-a for a in p.angles), ACW)
print("via angles     =", from_polar(negated))

# At N = 2 everything collapses to the classic complex plane.
z = CartesianHC((1.0, math.sqrt(3.0)))
print("plane argument =", arguments(z)[0], "(pi/3 =", math.pi / 3, ")")
