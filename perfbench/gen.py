"""Seeded input generators for the benchmark workloads.

Expressions are built as small trees of plain tuples and rendered to the
``hsc`` grammar.  The oracles in :mod:`oracle` evaluate these trees, never
the program's own parser, so a parser defect cannot hide behind a matching
oracle.  Every literal is written with few digits, and the oracle reads its
value back with ``float`` on that same text, so program and oracle start
from bit-identical operands.

Tree nodes::

    ("c", coeffs, text) ("p", modulus, angles, text)
    ("s3", coeffs, text) ("s3p", modulus, theta, phi, text)
    ("neg", child) ("bin", op, left, right) ("pow", child, n)
    ("conj", child) ("lift", child, value, text) ("roots", child, n)
    ("abs", child) ("arg", child, k)
"""

from __future__ import annotations

import math
import random

LITERALS = ("c", "p", "s3", "s3p")
MAX_DIM = 12

# (operator, weight) for the non-final steps of a chain.  Multiplicative
# steps keep the value as an angle chain; sums, negation, conj and lift
# project it to coordinates, so later products re-derive canonical angles.
_STEPS = (("*", 3.0), ("/", 2.0), ("^", 2.0), ("+", 1.5), ("-", 1.0),
          ("neg", 0.5), ("conj", 1.0), ("lift", 1.0))
_POLAR_STEPS = (("*", 3.0), ("/", 2.0), ("^", 2.0))
_FINAL_STEPS = (("roots", 1.0), ("abs", 0.4), ("arg", 0.4))
_PI_FORMS = ((1, 4), (1, 3), (1, 2), (2, 3), (3, 4), (5, 6), (1, 6))


def _pick(rng: random.Random, weighted) -> str:
    names = [n for n, _ in weighted]
    return rng.choices(names, weights=[w for _, w in weighted])[0]


def _num(rng: random.Random, lo: float, hi: float) -> tuple[float, str]:
    text = format(rng.uniform(lo, hi), ".4g")
    return float(text), text


def _angle(rng: random.Random) -> tuple[float, str]:
    if rng.random() < 0.15:
        k, m = rng.choice(_PI_FORMS)
        sign = rng.choice((1, -1))
        # the parser folds "-k*pi/m" as ((-k)*pi)/m; mirror it exactly
        value = (sign * k * math.pi) / m
        head = "-" if sign < 0 else ""
        text = f"{head}pi/{m}" if k == 1 else f"{head}{k}*pi/{m}"
        return value, text
    return _num(rng, -math.pi, math.pi)


def literal(rng: random.Random, head: str, dim: int):
    """One literal of the given head; ``dim`` is ignored by the 3D heads."""
    if head in ("c", "s3"):
        n = dim if head == "c" else 3
        mag = 10.0 ** rng.uniform(-0.5, 0.5)
        parts = [_num(rng, -mag, mag) for _ in range(n)]
        values = tuple(v for v, _ in parts)
        text = f"{head}[" + ",".join(t for _, t in parts) + "]"
        return (head, values, text)
    r, rt = _num(rng, 0.5, 2.0)
    n = dim - 1 if head == "p" else 2
    parts = [_angle(rng) for _ in range(n)]
    text = f"{head}[{rt}; " + ", ".join(t for _, t in parts) + "]"
    if head == "p":
        return ("p", r, tuple(v for v, _ in parts), text)
    return ("s3p", r, parts[0][0], parts[1][0], text)


def render(node) -> str:
    kind = node[0]
    if kind in LITERALS:
        return node[-1]
    if kind == "bin":
        return f"({render(node[2])} {node[1]} {render(node[3])})"
    if kind == "neg":
        return f"-({render(node[1])})"
    if kind == "pow":
        child = node[1]
        inner = render(child)
        if child[0] not in LITERALS and child[0] != "bin":
            inner = f"({inner})"
        return f"{inner}^{node[2]}"
    if kind in ("conj", "abs"):
        return f"{kind}({render(node[1])})"
    if kind == "lift":
        return f"lift({render(node[1])}, {node[3]})"
    return f"{kind}({render(node[1])}, {node[2]})"  # roots, arg


def chain(rng: random.Random, family: str, dim: int, steps: int,
          polar_only: bool = False, final: bool = True):
    """A chain of ``steps`` operators over one starting literal.

    ``family`` is "nd" (N-dimensional, starting at ``dim``) or "s3".
    ``polar_only`` restricts the chain to p-literals under ``*``, ``/`` and
    ``^n``, the chains the rotation oracle can follow.  With ``final`` the
    last step may be a terminal function (roots, abs, arg).
    """
    heads = ("p",) if polar_only else (("c", "p") if family == "nd" else ("s3", "s3p"))
    node = literal(rng, rng.choice(heads), dim)
    cur = dim
    for i in range(steps):
        table = _POLAR_STEPS if polar_only else _STEPS
        if final and i == steps - 1 and not polar_only and rng.random() < 0.35:
            table = _FINAL_STEPS
        op = _pick(rng, table)
        if op == "lift" and (family != "nd" or cur >= MAX_DIM):
            op = "*"
        if op in ("+", "-", "*", "/"):
            other = literal(rng, rng.choice(heads), cur)
            node = ("bin", op, node, other) if rng.random() < 0.6 else ("bin", op, other, node)
        elif op == "^":
            node = ("pow", node, rng.choice((-3, -2, -1, 0, 2, 2, 3)))
        elif op in ("neg", "conj", "abs"):
            node = (op, node)
        elif op == "lift":
            value, text = _num(rng, -2.0, 2.0)
            node = ("lift", node, value, text)
            cur += 1
        elif op == "roots":
            node = ("roots", node, rng.randint(2, 6))
        else:  # arg
            top = cur - 1 if family == "nd" else 2
            node = ("arg", node, rng.randint(1, top))
    return node


def dims_of(node) -> set[int]:
    """Every N-dimensional width the tree passes through."""
    kind = node[0]
    if kind == "c":
        return {len(node[1])}
    if kind == "p":
        return {len(node[2]) + 1}
    if kind in ("s3", "s3p"):
        return set()
    if kind == "bin":
        return dims_of(node[2]) | dims_of(node[3])
    if kind == "lift":
        inner = dims_of(node[1])
        return inner | {max(inner) + 1}
    return dims_of(node[1])


def is_polar_only(node) -> bool:
    kind = node[0]
    if kind == "p":
        return True
    if kind == "bin":
        return node[1] in ("*", "/") and is_polar_only(node[2]) and is_polar_only(node[3])
    if kind == "pow":
        return is_polar_only(node[1])
    return False


def family_of(node) -> str:
    while node[0] not in LITERALS:
        node = node[2] if node[0] == "bin" else node[1]
    return "s3" if node[0] in ("s3", "s3p") else "nd"
