"""Shared comparison helpers and hypothesis strategies for the test suite."""

import copy
import math
import pickle
import sys

from hypothesis import strategies as st

from hyperspace.expr import Binary, Call, Literal, Power, Unary

TWO_PI = 2.0 * math.pi


# the three ways to copy a value, by name
COPIES = {
    "pickle": lambda v: pickle.loads(pickle.dumps(v)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


def close(x: float, y: float, rel: float = 1e-9, abs_eps: float = 1e-12) -> bool:
    return abs(x - y) <= max(abs_eps, rel * max(abs(x), abs(y)))


def angle_close(x: float, y: float, tol: float = 1e-9) -> bool:
    """Closeness modulo a full turn."""
    d = abs(x - y) % TWO_PI
    return min(d, TWO_PI - d) <= tol


def vec_close(xs, ys, rel: float = 1e-9, abs_eps: float = 1e-12) -> bool:
    """Componentwise closeness against the joint magnitude scale."""
    xs, ys = tuple(xs), tuple(ys)
    assert len(xs) == len(ys)
    scale = max(max(abs(v) for v in xs), max(abs(v) for v in ys), 0.0)
    allow = max(abs_eps, rel * scale)
    return all(abs(a - b) <= allow for a, b in zip(xs, ys))


# Finite doubles from every part of the range: ordinary magnitudes, signed
# zeros, subnormals (below 2.2250738585072014e-308) and magnitudes near the
# largest double.
_HUGE = sys.float_info.max
wide_floats = st.one_of(
    st.floats(-100, 100),
    st.sampled_from((0.0, -0.0, 5e-324, -5e-324)),
    st.floats(-sys.float_info.min, sys.float_info.min),
    st.floats(1e307, _HUGE) | st.floats(-_HUGE, -1e307),
)

# Expression trees over 2-dimensional coordinate literals; each one is
# well typed, so parse(unparse(tree)) == tree.
expr_trees = st.recursive(
    st.builds(lambda a, b: Literal("c", (a, b)), wide_floats, wide_floats),
    lambda children: st.one_of(
        st.builds(lambda l, r: Binary("+", l, r), children, children),
        st.builds(lambda l, r: Binary("*", l, r), children, children),
        st.builds(lambda l, r: Binary("/", l, r), children, children),
        st.builds(lambda l, r: Binary("-", l, r), children, children),
        st.builds(lambda x: Unary("neg", x), children),
        st.builds(Power, children, st.integers(-5, 5)),
        st.builds(lambda x: Call("conj", x, None), children),
    ),
    max_leaves=12,
)


# Well-typed trees over every literal head, c and p at dims 2-6, s3 and s3p
# at 3, and every node kind: parse(unparse(tree)) == tree.  Coefficients,
# angles and lift's slot are wide_floats, so products overflow and divisors
# vanish; a polar modulus is >= 0 or -0.0, as parse allows.
_moduli = wide_floats.map(abs) | st.just(-0.0)


def _literals(head: str, dim: int):
    if head in ("p", "s3p"):
        numbers = st.tuples(_moduli, *[wide_floats] * (dim - 1))
    else:
        numbers = st.tuples(*[wide_floats] * dim)
    return numbers.map(lambda xs: Literal(head, xs))


def _number_trees(family: str, dim: int, depth: int):
    """Trees of one static type: 3D numbers (family 's3') or N-dimensional
    ones of dimension ``dim``."""
    heads = ("s3", "s3p") if family == "s3" else ("c", "p")
    leaves = st.one_of(*(_literals(h, dim) for h in heads))
    if depth == 0:
        return leaves
    child = _number_trees(family, dim, depth - 1)
    nodes = [
        st.builds(Binary, st.sampled_from("+-*/"), child, child),
        st.builds(lambda x: Unary("neg", x), child),
        st.builds(Power, child, st.integers(-5, 5)),
        st.builds(lambda x: Call("conj", x, None), child),
    ]
    if family == "ndim" and dim > 2:
        lower = _number_trees(family, dim - 1, depth - 1)
        nodes.append(st.builds(lambda x, a: Call("lift", x, a), lower, wide_floats))
    return st.one_of(leaves, *nodes)


@st.composite
def typed_trees(draw, depth: int = 3):
    """A tree of any static type: a number, abs/arg of one (a scalar), or its roots."""
    family = draw(st.sampled_from(("ndim", "s3")))
    dim = 3 if family == "s3" else draw(st.integers(2, 6))
    tree = draw(_number_trees(family, dim, depth))
    top = draw(st.sampled_from(("number", "abs", "arg", "roots")))
    if top == "abs":
        return Call("abs", tree, None)
    if top == "arg":
        return Call("arg", tree, draw(st.integers(1, dim - 1)))
    if top == "roots":
        return Call("roots", tree, draw(st.integers(1, 6)))
    return tree
