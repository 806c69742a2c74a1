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

``tokenize`` splits the text once, into parallel lists of kinds, texts and
offsets.  ``_Parser.climb`` parses every binary operator chain, in numbers
(tree nodes) and numeric slots, by precedence climbing over one binding-power
table; ``_fold`` folds a slot's chain to a finite real or rejects it at the
operator: a division by zero (``0^-1`` too), a complex power, an overflow.
A slot that is only a number or its negation is read without climbing.

``evaluate`` takes a tree that ``parse`` returned and checks only its
orientation (None means ccw), once: the type check stands for the rest.
Multiplicative results are carried in polar form so that chained products
compose at the angle level; additive operations and display project to
coordinates.
"""

from __future__ import annotations

import math
import operator
import re
from itertools import accumulate

from . import algebra, duality
from .algebra import MAX_ROOT_ORDER, RootSet
from .core import (
    CartesianHC,
    Orientation,
    PolarHC,
    Space3,
    Space3Polar,
    _CCW,
    _Frozen,
    _S3,
    _cartesian,
    _not_3d,
    _polar,
    arguments,
    conjugate,
    from_polar,
    modulus,
    resolve_orientation,
    to_dict,
)

# Nesting levels an expression may use: each parenthesis, call, power, unary
# sign and each further operator of any chain is one (a numeric literal's own
# signs are not).  Deeper input is a ParseError, so no stage overflows.
MAX_DEPTH = 100


class ParseError(ValueError):
    """Syntax error with the character offset and the tokens that were expected."""

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

# One split over the token pattern: the odd parts are the tokens, the even
# parts the gaps between them, where only whitespace may stand.
_SPLIT = re.compile(
    r"([\[\](),;+\-*/^]|(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?|[A-Za-z_][A-Za-z0-9_]*)"
)
# A token's kind by its first character: NAME, the symbol itself, or NUM for
# the rest (a digit, or a '.', which starts no other token).
_KINDS = dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_", "NAME")
_KINDS.update(zip("[](),;+-*/^", "[](),;+-*/^"))


def tokenize(text: str) -> tuple[list[str], list[str], list[int]]:
    """Token kinds (NUM, NAME, EOF or the symbol character itself), texts and
    offsets: three lists ending at EOF."""
    parts = _SPLIT.split(text)
    offsets = list(accumulate(map(len, parts)))[0::2]  # each gap's end
    if "".join(parts[0::2]).strip():
        for gap, end in zip(parts[0::2], offsets):
            if bad := gap.lstrip():
                raise ParseError(end - len(bad), ("a token",), repr(bad[0]))
    texts = parts[1::2]
    kinds = [_KINDS.get(tok[0], "NUM") for tok in texts] + ["EOF"]
    texts.append("")
    return kinds, texts, offsets


# ---------------------------------------------------------------------------
# syntax tree

class _Node(_Frozen):
    __slots__ = ()
    _defaults = {"offset": 0}
    _compared = -1  # a node's offset, its last field, is not compared


class Literal(_Node):
    """``head[numbers]``, head one of 'c', 'p', 's3', 's3p'; a polar head's
    numbers start with the modulus."""

    __slots__ = _fields = ("head", "numbers", "offset")


class Unary(_Node):
    """``op child``, op 'neg'."""

    __slots__ = _fields = ("op", "child", "offset")


class Binary(_Node):
    """``left op right``, op one of '+', '-', '*', '/'."""

    __slots__ = _fields = ("op", "left", "right", "offset")


class Power(_Node):
    """``child ^ n``."""

    __slots__ = _fields = ("child", "n", "offset")


class Call(_Node):
    """``fn(child)`` or ``fn(child, arg)``, fn one of 'abs', 'arg', 'roots',
    'lift', 'conj'; arg is None for the one-argument functions."""

    __slots__ = _fields = ("fn", "child", "arg", "offset")


Expr = Literal | Unary | Binary | Power | Call

_FUNCTIONS = ("abs", "arg", "roots", "lift", "conj")
_LITERAL_HEADS = ("c", "p", "s3", "s3p")
_POLAR_HEADS = ("p", "s3p")
_S3_HEADS = ("s3", "s3p")


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


# Binding powers of the binary operators, in numbers and numeric slots alike.
_BINDING = {"+": 1, "-": 1, "*": 2, "/": 2}
_TIGHTEST = max(_BINDING.values())
_SLOT_ENDS = frozenset(",;]")


class _Parser:
    def __init__(self, text: str):
        self.kinds, self.texts, self.offsets = tokenize(text)
        self.pos = self.depth = 0

    def error(self, *expected: str) -> ParseError:
        """The error of finding the current token where one of ``expected`` belongs."""
        pos = self.pos
        found = "end of input" if self.kinds[pos] == "EOF" else repr(self.texts[pos])
        return ParseError(self.offsets[pos], expected, found)

    def expect(self, kind: str) -> None:
        if self.kinds[self.pos] != kind:
            raise self.error(f"'{kind}'")
        self.pos += 1

    def descend(self) -> int:
        """Take the current token one nesting level deeper; return its index."""
        pos = self.pos
        self.pos += 1
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError(self.offsets[pos], (f"at most {MAX_DEPTH} nesting levels",),
                             repr(self.texts[pos]))
        return pos

    def climb(self, operand, combine, min_bp: int = 1):
        """``operand (op operand)*`` over the operators binding at least
        ``min_bp``, folded left by ``combine(op, left, right, offset)``.  Each
        further operator of one binding power nests one level deeper."""
        kinds, base, level = self.kinds, self.depth, 0
        value = operand()
        while (bp := _BINDING.get(kinds[self.pos], 0)) >= min_bp:
            if bp != level:  # the operators of a tighter chain are done
                level, self.depth = bp, base
            op = self.descend()
            right = operand() if bp == _TIGHTEST else self.climb(operand, combine, bp + 1)
            value = combine(kinds[op], value, right, self.offsets[op])
        self.depth = base
        return value

    def group(self, operand, combine):
        """``'(' climb ')'``, one nesting level below the parenthesis."""
        self.descend()
        value = self.climb(operand, combine)
        self.depth -= 1
        self.expect(")")
        return value

    # ----- number expressions -----

    def parse_factor(self) -> Expr:
        """Signs, then an atom and its ``^n`` powers."""
        pos, base = self.pos, self.depth
        kind = self.kinds[pos]
        if kind == "-" or kind == "+":
            self.descend()
            node = self.parse_factor()
            self.depth = base
            return Unary("neg", node, self.offsets[pos]) if kind == "-" else node
        if kind == "(":
            node = self.group(self.parse_factor, Binary)
        elif kind != "NAME":
            raise self.error("a literal", "a function", "'('")
        elif self.texts[pos] in _LITERAL_HEADS:
            node = self.parse_literal()
        elif self.texts[pos] in _FUNCTIONS:
            node = self.parse_call()
        else:
            raise self.error(*(f"'{n}'" for n in _LITERAL_HEADS + _FUNCTIONS))
        while self.kinds[self.pos] == "^":
            op = self.descend()
            node = Power(node, self.parse_signed_int(), self.offsets[op])
        self.depth = base
        return node

    def parse_literal(self) -> Expr:
        head, offset = self.texts[self.pos], self.offsets[self.pos]
        self.pos += 1
        self.expect("[")
        slot, kinds = self.parse_slot, self.kinds
        numbers = [slot()]
        if head in _POLAR_HEADS:
            self.expect(";")
            numbers.append(slot())
        while kinds[self.pos] == ",":
            self.pos += 1
            numbers.append(slot())
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
        pos = self.pos
        if self.kinds[pos + 1] != "(":
            self.pos += 1
            raise self.error("'('")
        self.descend()  # the name's level holds the argument
        self.pos += 1
        child = self.climb(self.parse_factor, Binary)
        self.depth -= 1
        fn, arg = self.texts[pos], None
        if fn == "arg" or fn == "roots":
            self.expect(",")
            arg = self.parse_signed_int()
        elif fn == "lift":
            self.expect(",")
            arg = self.parse_slot()
        self.expect(")")
        return Call(fn, child, arg, self.offsets[pos])

    def parse_signed_int(self) -> int:
        sign = -1 if self.kinds[self.pos] == "-" else 1
        self.pos += sign < 0
        pos = self.pos
        if self.kinds[pos] != "NUM" or not float(self.texts[pos]).is_integer():
            raise self.error("an integer")
        self.pos += 1
        return sign * int(float(self.texts[pos]))

    # ----- scalar (pi-arithmetic) expressions -----

    def parse_slot(self) -> float:
        """A numeric slot; a bare number or its negation is read without climbing."""
        kinds, pos = self.kinds, self.pos
        start = pos + (kinds[pos] == "-")
        if kinds[start] == "NUM" and kinds[start + 1] in _SLOT_ENDS:
            self.pos = start + 1
            value = float(self.texts[start])
            if value == math.inf:  # the only way a digit string fails
                raise OverflowError(_OUT_OF_RANGE.format(self.offsets[start]))
            return -value if start > pos else value
        return self.climb(self.parse_scalar_factor, _fold)

    def parse_scalar_factor(self) -> float:
        kinds, negate = self.kinds, False
        while kinds[self.pos] == "-" or kinds[self.pos] == "+":
            negate ^= kinds[self.pos] == "-"
            self.pos += 1
        pos = self.pos
        if kinds[pos] == "NUM":
            self.pos += 1
            value = float(self.texts[pos])
            if value == math.inf:  # the only way a digit string fails
                raise OverflowError(_OUT_OF_RANGE.format(self.offsets[pos]))
        elif kinds[pos] == "NAME" and self.texts[pos] == "pi":
            self.pos += 1
            value = math.pi
        elif kinds[pos] == "(":
            value = self.group(self.parse_scalar_factor, _fold)
        else:
            raise self.error("a number", "'pi'", "'('")
        if kinds[self.pos] == "^":
            op = self.descend()
            value = _fold("^", value, self.parse_scalar_factor(), self.offsets[op])
            self.depth -= 1
        return -value if negate else value


def _parse_typed(text: str) -> tuple[Expr, tuple]:
    """An expression's tree and its static type (see ``check``)."""
    parser = _Parser(text)
    node = parser.climb(parser.parse_factor, Binary)
    if parser.kinds[parser.pos] != "EOF":
        raise parser.error("end of input")
    return node, check(node)


def parse(text: str) -> Expr:
    """Parse and type-check an expression."""
    return _parse_typed(text)[0]


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
                node.offset, "cannot mix N-dimensional and 3D space numbers in one expression"
            )
        if lt != rt:
            raise ExprTypeError(node.offset, f"dimension mismatch: {lt[1]} vs {rt[1]}")
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
            raise ExprTypeError(node.offset, f"argument index must lie in 1..{top}, got {node.arg}")
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


def evaluate(node: Expr, orientation: Orientation | None = Orientation.ANTICLOCKWISE) -> Value:
    """Evaluate a tree that :func:`parse` returned under the orientation, the chart
    of N-dimensional values (None: ccw; 3D values keep s3), checked here once.
    Below it literals are built unchecked and values enter the kernels in their own chart,
    else in ``resolve_orientation``'s; a tree ``parse`` cannot return may raise anywhere."""
    return _eval(node, _CCW if orientation is None else Orientation.check(orientation))


def _eval(node: Expr, o: Orientation) -> Value:
    kind = node.__class__
    if kind is Literal:
        numbers, chart = node.numbers, _S3 if node.head in _S3_HEADS else o
        if chart is _S3 and len(numbers) != 3:  # an s3 request: a dimension parse cannot know
            raise _not_3d(len(numbers))
        if node.head in _POLAR_HEADS:
            return _polar(chart, numbers[0], numbers[1:])
        return _cartesian(chart, numbers)
    if kind is Binary:
        lv, rv = _eval(node.left, o), _eval(node.right, o)
        if node.op == "+":
            return algebra.add(_cart(lv), _cart(rv))
        if node.op == "-":
            return algebra.sub(_cart(lv), _cart(rv))
        lp = algebra._as_polar(lv, lv.orientation or resolve_orientation(o, lv))
        rp = algebra._as_polar(rv, rv.orientation or resolve_orientation(o, rv))
        return algebra.mul_polar(lp, rp) if node.op == "*" else algebra.div_polar(lp, rp)
    v = _eval(node.child, o)  # Unary, Power and Call take one operand
    if kind is Unary:
        return algebra.negate(_cart(v))
    if kind is Power:
        p = algebra._as_polar(v, v.orientation or resolve_orientation(o, v))
        return algebra.pow_int_polar(p, node.n)
    if node.fn == "abs":
        r = v.modulus if isinstance(v, PolarHC) else modulus(v)
        if not math.isfinite(r):  # the norm of finite coordinates may overflow
            raise ValueError(f"modulus must be finite and >= 0, got {r}")
        return r
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
    if x == 0.0 or snap_scale is not None and abs(x) < 1e-12 * snap_scale:
        x = 0.0  # snapped, or -0.0 normalized
    text = format(x, f".{digits}g")
    if abs(x) > 1e308 and math.isinf(float(text)):  # rounded past the largest float
        return format(x, ".17g")
    return text


_HEADS = {CartesianHC: "c", PolarHC: "p", Space3: "s3", Space3Polar: "s3p"}


def format_value(value: Value, digits: int = 12) -> str:
    """Render a value in the literal grammar (parse-compatible).

    A coefficient below 1e-12 of the largest one, and an angle below 1e-12,
    prints as 0, so products that land on an axis read exactly; a value whose
    coefficients are all subnormal prints them, and only zero prints as 0.
    A coefficient or modulus that ``digits`` would round past the largest
    float prints at 17 digits, which parse back to it.
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

# how tightly a node binds: a binary operator by its binding power, then these
_LEVEL_UNARY, _LEVEL_POWER, _LEVEL_ATOM = _TIGHTEST + 1, _TIGHTEST + 2, _TIGHTEST + 3


def _level(node: Expr) -> int:
    if isinstance(node, Binary):
        return _BINDING[node.op]
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
        return f"{wrap(node.left, _level(node))} {node.op} {wrap(node.right, _level(node) + 1)}"
    if isinstance(node, Power):
        return wrap(node.child, _LEVEL_ATOM) + f"^{node.n}"
    if isinstance(node, Call):
        inner = unparse(node.child)
        return f"{node.fn}({inner})" if node.arg is None else f"{node.fn}({inner}, {node.arg!r})"
    raise TypeError(f"cannot unparse {node!r}")
