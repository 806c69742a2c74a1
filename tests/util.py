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
