"""The evaluator against the one that checked its chart at every node.

``_reference_evaluator.evaluate`` is a frozen copy of the earlier evaluator,
built from the public ``algebra`` and ``core`` functions.  On every tree
``parse`` can return, under either orientation, both must give the same
value to the bit, or raise the same exception type with the same message.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _reference_evaluator as reference
from hyperspace import expr
from hyperspace.core import Orientation
from hyperspace.expr import Binary, Literal, parse, unparse, value_to_dict

from util import typed_trees

ORIENTATIONS = (Orientation.ANTICLOCKWISE, Orientation.CLOCKWISE)


def _outcome(evaluate, tree, o):
    try:
        value = evaluate(tree, o)
    except Exception as exc:  # noqa: BLE001 - any difference is a finding
        return type(exc), str(exc)
    return value_to_dict(value)


def assert_same(tree, o):
    assert _outcome(expr.evaluate, tree, o) == _outcome(reference.evaluate, tree, o), unparse(tree)


@settings(max_examples=400, deadline=None)
@given(typed_trees(), st.sampled_from(ORIENTATIONS))
def test_every_tree_evaluates_as_the_reference_does(tree, o):
    assert_same(parse(unparse(tree)), o)


def _c(*xs):
    return Literal("c", tuple(map(float, xs)))


def _p(*xs):
    return Literal("p", tuple(map(float, xs)))


S3, S3P = Literal("s3", (1.0, 2.0, 3.0)), Literal("s3p", (2.0, 0.5, 1.0))

# trees parse rejects: mixed dimensions, and the 3D family beside N-dimensional
# numbers of dimension 3
ILL_TYPED = [
    *(Binary(op, _c(1, 2), _c(1, 2, 3)) for op in "+-*/"),
    Binary("*", _p(1, 0.5), _c(1, 2, 3)),
    Binary("*", S3, _c(1, 2, 3)),
    Binary("*", _c(1, 2, 3), S3),
    Binary("/", S3P, _p(1, 0.5, 0.25)),
]


@pytest.mark.parametrize("o", ORIENTATIONS, ids=lambda o: o.value)
@pytest.mark.parametrize("tree", ILL_TYPED, ids=unparse)
def test_an_ill_typed_tree_raises_as_the_reference_does(tree, o):
    got = _outcome(expr.evaluate, tree, o)
    assert isinstance(got, tuple), got
    assert got == _outcome(reference.evaluate, tree, o)
