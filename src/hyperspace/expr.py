"""Expression grammar over hyperspace and 3D space complex numbers.

Literals, each one ``Literal`` node::

    c[1,2,3]            coordinate form, dimension = coefficient count
    p[2; pi/4, 0.1]     polar form: modulus; angle chain
    s3[1,2,3]           3D coordinate form
    s3p[2; pi/2, pi]    3D polar form: modulus; master, slave angle

Binary ``+ - * /`` (left associative), unary minus, ``^n`` integer powers
(binding tighter than unary minus), and the functions ``abs(e)``,
``arg(e, k)``, ``roots(e, n)``, ``lift(e, a)``, ``conj(e)``.  Numeric slots
accept ``pi`` arithmetic.  The two dimension families (N-dimensional vs 3D
space numbers) cannot be mixed, and N-dimensional operands must share one
dimension; both are rejected during the parse-time type check.

One routine, ``_Parser.chain``, parses every left-associative operator
chain, in numbers (tree nodes) and numeric slots, which ``_fold`` folds to a
finite real or rejects at the operator: a division by zero (``0^-1`` too), a
complex power, an overflow.

Multiplicative results are carried in polar form so that chained products
compose at the angle level; additive operations and display project to
coordinates.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field
from functools import partial
from typing import NoReturn

from . import algebra, duality
from .algebra import RootSet
from .core import (
    CartesianHC,
    Orientation,
    PolarHC,
    Space3,
    Space3Polar,
    arguments,
    conjugate,
    from_polar,
    make_cartesian,
    make_polar,
    modulus,
    to_dict,
)

# Nesting levels an expression may use: each parenthesis, call, power, unary
# sign and each further operator of any chain is one (a numeric literal's own
# signs are not).  Deeper input is a ParseError, so no stage overflows.
MAX_DEPTH = 100
# Largest n that roots(e, n) and ``hsc roots`` accept: n roots are built.
MAX_ROOT_ORDER = 1000


class ParseError(ValueError):
    """Syntax error with the byte offset and the tokens that were expected."""

    def __init__(self, offset: int, expected: tuple[str, ...], found: str):
        self.offset = offset
        self.expected = expected
        self.found = found
        want = " or ".join(expected)
        super().__init__(f"syntax error at offset {offset}: expected {want}, found {found}")


class ExprTypeError(ValueError):
    """Static type error (mixed families, dimension clash, bad argument)."""

    def __init__(self, offset: int, message: str):
        self.offset = offset
        super().__init__(f"type error at offset {offset}: {message}")


# ---------------------------------------------------------------------------
# tokens

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


# ---------------------------------------------------------------------------
# syntax tree

@dataclass(frozen=True, slots=True)
class Literal:
    """``head[numbers]``; a polar head's numbers start with the modulus."""

    head: str  # 'c', 'p', 's3', 's3p'
    numbers: tuple[float, ...]
    offset: int = field(compare=False, default=0)


@dataclass(frozen=True, slots=True)
class Unary:
    op: str  # 'neg'
    child: "Expr"
    offset: int = field(compare=False, default=0)


@dataclass(frozen=True, slots=True)
class Binary:
    op: str  # '+', '-', '*', '/'
    left: "Expr"
    right: "Expr"
    offset: int = field(compare=False, default=0)


@dataclass(frozen=True, slots=True)
class Power:
    child: "Expr"
    n: int
    offset: int = field(compare=False, default=0)


@dataclass(frozen=True, slots=True)
class Call:
    fn: str  # 'abs', 'arg', 'roots', 'lift', 'conj'
    child: "Expr"
    arg: float | int | None
    offset: int = field(compare=False, default=0)


Expr = Literal | Unary | Binary | Power | Call

_FUNCTIONS = ("abs", "arg", "roots", "lift", "conj")
_LITERAL_HEADS = ("c", "p", "s3", "s3p")
_POLAR_HEADS = ("p", "s3p")
_S3_HEADS = ("s3", "s3p")


def _power(op: str, base: Expr, n: int, offset: int) -> Expr:
    return Power(base, n, offset)


_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
               "^": operator.pow}
_OUT_OF_RANGE = "numeric literal out of range at offset {}"


def _fold(op: str, x: float, y: float, offset: int) -> float:
    """``x op y`` in a numeric literal: a finite real, or an error at ``offset``."""
    try:
        value = _ARITHMETIC[op](x, y)
    except ZeroDivisionError:  # x / 0 and 0 ^ -y
        raise ExprTypeError(offset, "division by zero in a numeric literal") from None
    except OverflowError:  # ^ raises where the other operators give inf
        value = math.inf
    if isinstance(value, complex):
        raise ExprTypeError(offset, "numeric literal is not a real number")
    if not math.isfinite(value):
        raise OverflowError(_OUT_OF_RANGE.format(offset))
    return value


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


# ---------------------------------------------------------------------------
# static types: ('ndim', dim) | ('s3', 3) | ('scalar',) | ('roots',)

def check(node: Expr) -> tuple:
    if isinstance(node, Literal):
        return ("s3" if node.head in _S3_HEADS else "ndim", len(node.numbers))
    if isinstance(node, Binary):
        lt, rt = check(node.left), check(node.right)
        if lt[0] not in ("ndim", "s3") or rt[0] not in ("ndim", "s3"):
            raise ExprTypeError(node.offset, f"'{node.op}' needs number operands")
        if lt[0] != rt[0]:
            raise ExprTypeError(
                node.offset,
                "cannot mix N-dimensional and 3D space numbers in one expression",
            )
        if lt != rt:
            raise ExprTypeError(
                node.offset, f"dimension mismatch: {lt[1]} vs {rt[1]}"
            )
        return lt
    t = check(node.child)  # Unary, Power and Call take one operand
    if t[0] not in ("ndim", "s3"):
        if isinstance(node, Unary):
            raise ExprTypeError(node.offset, f"cannot negate a {t[0]} value")
        if isinstance(node, Power):
            raise ExprTypeError(node.offset, f"cannot raise a {t[0]} value to a power")
        raise ExprTypeError(node.offset, f"{node.fn}() needs a number argument")
    if isinstance(node, (Unary, Power)):
        return t
    if node.fn == "abs":
        return ("scalar",)
    if node.fn == "conj":
        return t
    if node.fn == "arg":
        top = t[1] - 1
        if not 1 <= node.arg <= top:
            raise ExprTypeError(
                node.offset, f"argument index must lie in 1..{top}, got {node.arg}"
            )
        return ("scalar",)
    if node.fn == "roots":
        check_root_order(node.arg, node.offset)
        return ("roots",)
    if node.fn == "lift":
        if t[0] != "ndim":
            raise ExprTypeError(node.offset, "lift() applies to N-dimensional numbers only")
        return ("ndim", t[1] + 1)
    raise ExprTypeError(node.offset, f"unknown function {node.fn!r}")


def check_root_order(n: int, offset: int = 0) -> None:
    """Root orders run from 1 to MAX_ROOT_ORDER."""
    if n < 1:
        raise ExprTypeError(offset, f"root order must be >= 1, got {n}")
    if n > MAX_ROOT_ORDER:
        raise ExprTypeError(offset, f"root order must be <= {MAX_ROOT_ORDER}, got {n}")


# ---------------------------------------------------------------------------
# evaluation

Value = float | CartesianHC | PolarHC | RootSet


def _cart(v: Value) -> Value:
    """Coordinate form of a polar value; anything else as it is."""
    return from_polar(v) if isinstance(v, PolarHC) else v


def evaluate(node: Expr, orientation: Orientation = Orientation.ANTICLOCKWISE) -> Value:
    """Evaluate a type-checked expression under the given orientation.

    The orientation is the chart of N-dimensional values; 3D values keep
    the s3 chart.
    """
    o = orientation if orientation is None else Orientation.check(orientation)
    if isinstance(node, Literal):
        chart = Orientation.S3 if node.head in _S3_HEADS else o
        if node.head in _POLAR_HEADS:
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


# ---------------------------------------------------------------------------
# printing

def _fmt(x: float, digits: int, snap_scale: float | None = None) -> str:
    if snap_scale is not None and abs(x) < 1e-12 * max(snap_scale, 1e-300):
        x = 0.0
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return format(x, f".{digits}g")


_HEADS = {CartesianHC: "c", PolarHC: "p", Space3: "s3", Space3Polar: "s3p"}


def format_value(value: Value, digits: int = 12) -> str:
    """Render a value in the literal grammar (parse-compatible).

    Components smaller than 1e-12 of the value's scale print as 0, so
    products that land on an axis read exactly.
    """
    if isinstance(value, float):
        return _fmt(value, digits)
    if isinstance(value, RootSet):
        return "\n".join(format_value(v, digits) for v in value)
    if isinstance(value, CartesianHC):
        scale = max(abs(c) for c in value.coeffs)
        body = ",".join(_fmt(c, digits, scale) for c in value.coeffs)
        return f"{_HEADS[type(value)]}[{body}]"
    if isinstance(value, PolarHC):
        angles = ", ".join(_fmt(a, digits, 1.0) for a in value.angles)
        return f"{_HEADS[type(value)]}[{_fmt(value.modulus, digits)}; {angles}]"
    raise TypeError(f"cannot format {value!r}")


def value_to_dict(value: Value) -> dict:
    """JSON encoding of an evaluation result."""
    if isinstance(value, float):
        return {"kind": "scalar", "value": value}
    if isinstance(value, RootSet):
        return {"kind": "roots", "roots": [value_to_dict(v) for v in value]}
    return to_dict(value)


# ---------------------------------------------------------------------------
# unparsing (printer/parser round trip)

_LEVEL_ADD, _LEVEL_MUL, _LEVEL_UNARY, _LEVEL_POWER, _LEVEL_ATOM = 0, 1, 2, 3, 4


def _level(node: Expr) -> int:
    if isinstance(node, Binary):
        return _LEVEL_ADD if node.op in ("+", "-") else _LEVEL_MUL
    if isinstance(node, Unary):
        return _LEVEL_UNARY
    if isinstance(node, Power):
        return _LEVEL_POWER
    return _LEVEL_ATOM


def unparse(node: Expr) -> str:
    """Literal text for a tree; parse(unparse(t)) equals t."""

    def wrap(child: Expr, minimum: int) -> str:
        text = unparse(child)
        return f"({text})" if _level(child) < minimum else text

    if isinstance(node, Literal):
        numbers = [repr(x) for x in node.numbers]
        if node.head in _POLAR_HEADS:
            angles = (", " if node.head == "s3p" else ",").join(numbers[1:])
            return f"{node.head}[{numbers[0]}; {angles}]"
        return f"{node.head}[{','.join(numbers)}]"
    if isinstance(node, Unary):
        return "-" + wrap(node.child, _LEVEL_UNARY)
    if isinstance(node, Binary):
        minimum = _level(node)
        left = wrap(node.left, minimum)
        right = wrap(node.right, minimum + 1)
        return f"{left} {node.op} {right}"
    if isinstance(node, Power):
        return wrap(node.child, _LEVEL_ATOM) + f"^{node.n}"
    if isinstance(node, Call):
        inner = unparse(node.child)
        if node.fn in ("abs", "conj"):
            return f"{node.fn}({inner})"
        if node.fn in ("arg", "roots"):
            return f"{node.fn}({inner}, {node.arg})"
        return f"lift({inner}, {node.arg!r})"
    raise TypeError(f"cannot unparse {node!r}")
