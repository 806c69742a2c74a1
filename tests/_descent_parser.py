"""The recursive-descent expression parser that precedence climbing replaced.

A frozen reference for ``test_parser_differential.py``: ``parse`` here must
build the same trees, with the same node offsets, and raise the same errors
as ``hyperspace.expr.parse``.  Only the front end is copied; the nodes,
``_fold``, ``check`` and the error types are the library's own.  Do not
change it to follow the library: a difference is what the test looks for.
"""

from __future__ import annotations

import math
import re
from functools import partial
from typing import NoReturn

from hyperspace.expr import (
    _FUNCTIONS,
    _LITERAL_HEADS,
    _OUT_OF_RANGE,
    _POLAR_HEADS,
    _S3_HEADS,
    MAX_DEPTH,
    Binary,
    Call,
    Expr,
    ExprTypeError,
    Literal,
    ParseError,
    Power,
    Unary,
    _fold,
    check,
)

# (kind, text, offset); kind is NUM, NAME, EOF or the symbol character itself
_Tok = tuple[str, str, int]

# whitespace is skipped in front of every token; the catch-all ``bad`` group
# turns a character no token starts with into a ParseError
_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<NUM>(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?)
      | (?P<NAME>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<sym>[\[\](),;+\-*/^])
      | (?P<EOF>\Z)
      | (?P<bad>.)
    )""",
    re.VERBOSE | re.DOTALL,
)


def tokenize(text: str) -> list[_Tok]:
    out: list[_Tok] = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        tok, offset = m.group(kind), m.start(kind)
        if kind == "bad":
            raise ParseError(offset, ("a token",), repr(tok))
        out.append((tok if kind == "sym" else kind, tok, offset))
    return out


def _power(op: str, base: Expr, n: int, offset: int) -> Expr:
    return Power(base, n, offset)


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0
        self.depth = 0
        # The left-associative chains.  A partial adds no Python frame, so a
        # nesting level costs no more stack than with a hand-written loop.
        self.parse_term = partial(self.chain, "*/", self.parse_factor, Binary)
        self.parse_expr = partial(self.chain, "+-", self.parse_term, Binary)
        self.parse_scalar_term = partial(self.chain, "*/", self.parse_scalar_factor, _fold)
        self.parse_scalar = partial(self.chain, "+-", self.parse_scalar_term, _fold)

    def kind(self) -> str:
        return self.tokens[self.pos][0]

    def advance(self) -> _Tok:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, *expected: str) -> NoReturn:
        kind, text, offset = self.tokens[self.pos]
        raise ParseError(offset, expected, "end of input" if kind == "EOF" else repr(text))

    def expect(self, kind: str) -> _Tok:
        if self.kind() != kind:
            self.fail(f"'{kind}'")
        return self.advance()

    def descend(self, tok: _Tok) -> None:
        """One nesting level deeper, at ``tok``; see MAX_DEPTH."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError(tok[2], (f"at most {MAX_DEPTH} nesting levels",), repr(tok[1]))

    def deeper(self, tok: _Tok, parse):
        """``parse()`` one nesting level below ``tok``."""
        self.descend(tok)
        node = parse()
        self.depth -= 1
        return node

    def group(self, parse):
        """``'(' parse() ')'``, one nesting level below the parenthesis."""
        tok = self.advance()
        value = self.deeper(tok, parse)
        self.expect(")")
        return value

    def chain(self, ops: str, operand, combine, rhs=None):
        """``operand (op rhs)*`` folded left by ``combine(op, left, right,
        offset)``, where ``op`` is one of the characters of ``ops`` and
        ``rhs`` defaults to ``operand``.  Every further operator nests one
        level deeper."""
        depth = self.depth
        value = operand()
        while self.kind() in ops:
            op = self.advance()
            self.descend(op)
            value = combine(op[0], value, (rhs or operand)(), op[2])
        self.depth = depth
        return value

    # ----- number expressions -----

    def parse_factor(self) -> Expr:
        if self.kind() not in ("-", "+"):
            return self.chain("^", self.parse_atom, _power, self.parse_signed_int)
        tok = self.advance()
        node = self.deeper(tok, self.parse_factor)
        return Unary("neg", node, tok[2]) if tok[0] == "-" else node

    def parse_atom(self) -> Expr:
        kind, text, _ = self.tokens[self.pos]
        if kind == "(":
            return self.group(self.parse_expr)
        if kind == "NAME":
            if text in _LITERAL_HEADS:
                return self.parse_literal()
            if text in _FUNCTIONS:
                return self.parse_call()
            self.fail(*(f"'{n}'" for n in _LITERAL_HEADS + _FUNCTIONS))
        self.fail("a literal", "a function", "'('")

    def parse_literal(self) -> Expr:
        _, head, offset = self.advance()
        self.expect("[")
        numbers = [self.parse_scalar()]
        if head in _POLAR_HEADS:
            self.expect(";")
            numbers.append(self.parse_scalar())
        while self.kind() == ",":
            self.advance()
            numbers.append(self.parse_scalar())
        self.expect("]")
        if head == "c" and len(numbers) < 2:
            raise ExprTypeError(offset, "c[...] needs at least 2 coefficients")
        if head in _S3_HEADS and len(numbers) != 3:
            need = "3 coefficients" if head == "s3" else "2 angles"
            raise ExprTypeError(offset, f"{head}[...] needs exactly {need}")
        if head in _POLAR_HEADS and numbers[0] < 0:
            raise ExprTypeError(offset, "polar modulus must be >= 0")
        return Literal(head, tuple(numbers), offset)

    def parse_call(self) -> Expr:
        name = self.advance()
        fn = name[1]
        self.expect("(")
        child = self.deeper(name, self.parse_expr)
        arg: float | int | None = None
        if fn == "arg" or fn == "roots":
            self.expect(",")
            arg = self.parse_signed_int()
        elif fn == "lift":
            self.expect(",")
            arg = self.parse_scalar()
        self.expect(")")
        return Call(fn, child, arg, name[2])

    def parse_signed_int(self) -> int:
        sign = 1
        if self.kind() == "-":
            self.advance()
            sign = -1
        kind, text, _ = self.tokens[self.pos]
        if kind != "NUM" or not float(text).is_integer():
            self.fail("an integer")
        self.advance()
        return sign * int(float(text))

    # ----- scalar (pi-arithmetic) expressions -----

    def parse_scalar_factor(self) -> float:
        negate = False
        while self.kind() in ("-", "+"):
            negate ^= self.advance()[0] == "-"
        value = self.parse_scalar_atom()
        if self.kind() == "^":
            op = self.advance()
            value = _fold("^", value, self.deeper(op, self.parse_scalar_factor), op[2])
        return -value if negate else value

    def parse_scalar_atom(self) -> float:
        kind, text, offset = self.tokens[self.pos]
        if kind == "NUM":
            self.advance()
            value = float(text)
            if value == math.inf:  # the only way a digit string fails
                raise OverflowError(_OUT_OF_RANGE.format(offset))
            return value
        if kind == "NAME" and text == "pi":
            self.advance()
            return math.pi
        if kind == "(":
            return self.group(self.parse_scalar)
        self.fail("a number", "'pi'", "'('")


def parse(text: str) -> Expr:
    """Parse and type-check an expression."""
    parser = _Parser(text)
    node = parser.parse_expr()
    if parser.kind() != "EOF":
        parser.fail("end of input")
    check(node)
    return node
