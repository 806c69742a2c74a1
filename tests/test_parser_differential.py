"""The precedence-climbing parser against the recursive descent it replaced.

``_descent_parser.parse`` is a frozen copy of the earlier front end.  On
every text, valid or not, both must give equal trees with equal node
offsets, or raise the same exception type with the same offset and message.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

import _descent_parser as descent
from hyperspace import expr
from hyperspace.expr import MAX_DEPTH, unparse

from util import expr_trees


def _offsets(node):
    """Each node's type and offset, in pre-order: equality ignores offsets."""
    yield type(node).__name__, node.offset
    for name in ("left", "right", "child"):
        child = getattr(node, name, None)
        if child is not None:
            yield from _offsets(child)


def _outcome(parse, text):
    try:
        tree = parse(text)
    except Exception as exc:  # noqa: BLE001 - any difference is a finding
        return type(exc), getattr(exc, "offset", None), str(exc)
    return tree, list(_offsets(tree))


def assert_same(text):
    assert _outcome(expr.parse, text) == _outcome(descent.parse, text), text


CORPUS = [
    "c[1,1] * c[1,1]",
    "roots(c[-1,0], 2)",
    "lift(c[3,4], 12)",
    "lift(c[3,4], -pi/2^2)",
    "-c[1,1]^2",
    "+-+c[1,1]^-2^3",
    "(c[1,0] + c[0,1]) * c[0,1] - c[2,2]",
    "p[2; pi/4, 0.25] / c[1,0,0]",
    "p[2^-1; -(pi/4)*3, -.5e1, 1.e-3]",
    "abs(c[3,4]) * arg(c[1,1,1], 2)",
    "conj(s3[1,2,3]) + s3p[1; pi/2, 0]",
    "s3[0,1,0]^-2 / s3[1, -1, 2]",
    "c[4,0] / c[2,0] / c[2,0] - c[1,0] * c[0,1] * c[1,1] + c[3,3]",
    "c[1+2*3-4/5, --6^2^-1, (1+(2*(3-4)))/5]",
    "c[1e400,0]",
    "c[0^-1, 1]",
    "c[(-8)^0.5, 1]",
    "c[1e308*10, 0]",
    "p[-1; 0]",
    "c[1]",
    "s3p[1; 0]",
    "c[1,2] + c[1,2,3]",
    "c[1,2] + s3[1,2,3]",
    "roots(c[1,1], 0) + c[1,1]",
    "arg(c[1,2], 1.5)",
    "c[1,0]^+2 + arg(c[1,2,3], +1) - roots(c[1,1], -2) * c[1,0]^--1",
    "c[\u0663, 1]\u00a0\t\n",  # an Arabic-Indic digit; a no-break space
]

# what a mutation deletes, inserts or replaces: characters and whole tokens
PIECES = [
    "c[", "p[", "s3[", "s3p[", "[", "]", "(", ")", ",", ";", "+", "-", "*", "/", "^",
    "pi", "abs(", "arg(", "roots(", "lift(", "conj(", "q", "1", "0", "2.5", "1e400",
    "1e", ".", "e", "$", "@", " ", "\t", "\u00a0", "\u0663", "\u00e9",
]

valid_texts = expr_trees.map(unparse) | st.sampled_from(CORPUS)


@st.composite
def mutated_texts(draw):
    text = draw(valid_texts)
    if draw(st.booleans()):  # a character
        start = draw(st.integers(0, len(text)))
        stop = min(start + 1, len(text))
    else:  # a token, or the end of the text
        tokens = descent.tokenize(text)
        _, tok, start = draw(st.sampled_from(tokens))
        stop = start + len(tok)
    how = draw(st.sampled_from(("delete", "insert", "replace")))
    piece = "" if how == "delete" else draw(st.sampled_from(PIECES))
    return text[:start] + piece + text[start if how == "insert" else stop:]


@given(valid_texts)
def test_valid_texts(text):
    assert_same(text)


@given(mutated_texts())
def test_mutated_texts(text):
    assert_same(text)


# each construct of the CLI's too-deep cases, n levels of it
NESTINGS = {
    "parentheses": lambda n: "(" * n + "c[1,0]" + ")" * n,
    "chain": lambda n: " + ".join(["c[1,0]"] * (n + 1)),
    "calls": lambda n: "abs(" * n + "c[1,0]" + ")" * n,
    "powers": lambda n: "c[1,0]" + "^1" * n,
    "scalar": lambda n: "p[" + "(" * n + "1" + ")" * n + "; 0]",
    "scalar_chain": lambda n: "c[" + "+".join(["1"] * (n + 1)) + ",0]",
    "signs": lambda n: "-" * n + "c[1,0]",
    # a chain's sums start again from its depth after its first term's products
    "products_then_sums": lambda n: "c[1,0]" + " * c[1,0]" * n + " + c[1,0]" * n,
    "scalar_products_then_sums": lambda n: "c[1" + "*1" * n + "+1" * n + ",0]",
    "scalar_powers_in_a_chain": lambda n: "c[" + "2^1*" * n + "1,0]",
}


@pytest.mark.parametrize("n", [MAX_DEPTH - 1, MAX_DEPTH, MAX_DEPTH + 1, MAX_DEPTH + 2])
@pytest.mark.parametrize("construct", sorted(NESTINGS))
def test_nesting_at_the_limit(construct, n):
    text = NESTINGS[construct](n)
    assert_same(text)
    if n > MAX_DEPTH:
        with pytest.raises(expr.ParseError, match="nesting levels"):
            expr.parse(text)


# a syntax error next to the nesting limit: the first in the text is reported
EDGES = [
    "abs(" * MAX_DEPTH + "abs c[1,0]" + ")" * MAX_DEPTH,
    "abs(" * MAX_DEPTH + "abs(c[1,0]" + ")" * MAX_DEPTH,
    "(" * (MAX_DEPTH + 1) + "$",
    "(" * MAX_DEPTH + "c[1,0] +" + ")" * MAX_DEPTH,
    "c[1,0]" + "^1" * MAX_DEPTH + "^x",
    "-" * MAX_DEPTH + "-q",
    "p[" + "(" * MAX_DEPTH + "1^" + ")" * MAX_DEPTH + "; 0]",
    "c[" + "1/" * (MAX_DEPTH + 1) + "0,0]",
    "c[" + "1/" * MAX_DEPTH + "0,0]",
]


@pytest.mark.parametrize("text", EDGES)
def test_errors_at_the_limit(text):
    assert_same(text)


# one nesting level around a text, of each kind the grammar has
WRAPPERS = [
    lambda t: f"({t})",
    lambda t: f"-{t}",
    lambda t: f"+{t}",
    lambda t: f"conj({t})",
    lambda t: f"({t})^2",
    lambda t: f"c[1,0] - {t}",
    lambda t: f"{t} * c[0,1]",
    lambda t: f"c[1,0] / ({t}) + c[1,1]",
    lambda t: f"{t} + c[0,1]",
]


@given(st.lists(st.sampled_from(WRAPPERS), min_size=MAX_DEPTH // 3, max_size=MAX_DEPTH + 20),
       st.sampled_from(["c[1,0]", "c[1+2*3-1, -pi^2]", "c[1,0] * c[1,1] * c[2,2] + c[3,3]"]))
def test_mixed_nesting(wrappers, core):
    text = core
    for wrap in wrappers:
        text = wrap(text)
    assert_same(text)
