"""Dimension lift: adjoin a dual imaginary copy scaled by a new coefficient.

An n-dimensional number c with |c| > 0 grows to n+1 dimensions by adding
i_n * (a_new / |c|) * c, which in coordinates simply appends a_new as the
new top coefficient.  In polar terms the modulus grows Pythagorean-style to
sqrt(|c|^2 + a_new^2) and the anticlockwise angle chain is extended by
arctan(a_new / |c|) while the existing angles are untouched.  Iterating the
lift from a plane number rebuilds any number whose leading two coefficients
are not both zero.
"""

from __future__ import annotations

from .core import CartesianHC, modulus


def lift(c: CartesianHC, a_new: float) -> CartesianHC:
    """Append ``a_new`` as a new top coefficient; |c| must be positive
    because the construction scales the copy by a_new / |c|."""
    if modulus(c) == 0.0:
        raise ZeroDivisionError(
            "cannot lift a zero-modulus number: its direction is undefined"
        )
    return CartesianHC(c.coeffs + (a_new,))
