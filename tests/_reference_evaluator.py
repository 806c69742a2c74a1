"""The expression evaluator that checked its chart at every node.

A frozen reference for ``test_evaluator_differential.py``: ``evaluate`` here
must give the same values, to the bit, and raise the same errors as
``hyperspace.expr.evaluate`` on every tree ``parse`` can return.  It is built
only from the public functions of ``algebra``, ``core`` and ``duality``: each
literal goes through the validating constructors and each operation through
the function that resolves its chart.  Do not change it to follow the
library: a difference is what the test looks for.
"""

from __future__ import annotations

from hyperspace import algebra, duality
from hyperspace.core import (
    Orientation,
    PolarHC,
    arguments,
    conjugate,
    from_polar,
    make_cartesian,
    make_polar,
    modulus,
)
from hyperspace.expr import Binary, Call, Literal, Power, Unary


def _cart(v):
    return from_polar(v) if isinstance(v, PolarHC) else v


def evaluate(node, orientation=Orientation.ANTICLOCKWISE):
    o = orientation if orientation is None else Orientation.check(orientation)
    if isinstance(node, Literal):
        chart = Orientation.S3 if node.head in ("s3", "s3p") else o
        if node.head in ("p", "s3p"):
            return make_polar(chart, node.numbers[0], node.numbers[1:])
        return make_cartesian(chart, node.numbers)
    if isinstance(node, Unary):
        return algebra.negate(_cart(evaluate(node.child, o)))
    if isinstance(node, Binary):
        lv = evaluate(node.left, o)
        rv = evaluate(node.right, o)
        if node.op == "+":
            return algebra.add(_cart(lv), _cart(rv))
        if node.op == "-":
            return algebra.sub(_cart(lv), _cart(rv))
        if node.op == "*":
            return algebra.mul_polar(algebra.as_polar(lv, o), algebra.as_polar(rv, o))
        return algebra.div_polar(algebra.as_polar(lv, o), algebra.as_polar(rv, o))
    if isinstance(node, Power):
        v = evaluate(node.child, o)
        return algebra.pow_int_polar(algebra.as_polar(v, o), node.n)
    if isinstance(node, Call):
        v = evaluate(node.child, o)
        if node.fn == "abs":
            return v.modulus if isinstance(v, PolarHC) else modulus(v)
        if node.fn == "conj":
            return conjugate(_cart(v))
        if node.fn == "arg":
            return arguments(_cart(v), o)[int(node.arg) - 1]
        if node.fn == "roots":
            return algebra.nth_roots(_cart(v), int(node.arg), o)
        if node.fn == "lift":
            return duality.lift(_cart(v), float(node.arg))
    raise AssertionError(f"unhandled node {node!r}")
