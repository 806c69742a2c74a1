"""Seeded input pools for the two expression workloads.

Each pool item carries the text the program receives and the expectation
an oracle derived from the generator's own tree.  Inputs the oracle screen
rejects (see :mod:`oracle`) are redrawn, so the pool depends on the seed
alone.
"""

from __future__ import annotations

import random

import gen
import oracle

# 3000-deep nesting: deeper than the interpreter's default recursion limit.
DEEP_NESTING = 3000


# expr_batch draws one expression per (shape, chain length) pair, so every
# seed's pool has the same mix of widths, families and lengths and only the
# operands and operators change: pool cost then moves little with the seed.
# A shape is (family, starting dim, p-literals only).
_EXPR_SHAPES = (
    ("s3", 3, False), ("s3", 3, False), ("s3", 3, False), ("s3", 3, False),
    ("nd", 2, False), ("nd", 2, False), ("nd", 2, False), ("nd", 3, False),
    ("nd", 3, True), ("nd", 3, False), ("nd", 4, False), ("nd", 4, True),
    ("nd", 5, False), ("nd", 5, True), ("nd", 6, False), ("nd", 7, False),
    ("nd", 8, True), ("nd", 9, False), ("nd", 10, False), ("nd", 12, False),
)
_EXPR_STEPS = range(2, 17)


def _random_shape(rng: random.Random, max_dim: int) -> tuple[str, int, bool]:
    if rng.random() < 0.2:
        return "s3", 3, False
    dim = rng.randint(2, rng.randint(2, max_dim))
    return "nd", dim, dim >= 3 and rng.random() < 0.25


def _draw(rng: random.Random, shape, steps: int, final: bool, cw: bool, make=oracle.expect):
    """One chain of the given shape and ``make(node, cw)``, the oracle's
    expectation; chains the oracle screen rejects are drawn again."""
    family, dim, polar_only = shape
    while True:
        node = gen.chain(rng, family, dim, steps, polar_only=polar_only, final=final)
        try:
            return node, make(node, cw)
        except (oracle.Reject, ZeroDivisionError):
            continue


def expr_pool(seed: int, size: int) -> list[dict]:
    """expr_batch inputs: chains of 2-16 operators at dims 2-12 and s3, half
    of them in each orientation."""
    rng = random.Random(f"expr_batch:{seed}")
    cells = [(shape, steps) for shape in _EXPR_SHAPES for steps in _EXPR_STEPS]
    items = []
    for k in range(size):
        shape, steps = cells[k * len(cells) // size]
        cw = k % 2 == 1
        node, (form, kind, want) = _draw(rng, shape, steps, True, cw)
        items.append({"text": gen.render(node), "cw": cw, "form": form,
                      "oracle": kind, "want": want})
    return items


def _error_requests(rng: random.Random) -> list[dict]:
    """One request per documented error outcome (exit code, offset wanted)."""
    a = gen.literal(rng, "c", 2)[2]
    b = gen.literal(rng, "c", 3)[2]
    big = rng.randint(10, 99)
    return [
        {"argv": ["eval", f"{a} * * {a}"], "error": "parse", "code": 1, "offset": True},
        {"argv": ["eval", f"{a} + {b}"], "error": "type", "code": 1, "offset": True},
        {"argv": ["eval", f"{b} / c[0,0,0]"], "error": "zero_divisor", "code": 2, "offset": False},
        {"argv": ["eval", f"c[{big},0]^{rng.randint(400, 500)}"], "error": "overflow", "code": 2,
         "offset": False},
        {"argv": ["eval", f"p[10^{rng.randint(400, 500)}; 0]"], "error": "overflow", "code": 2,
         "offset": False},
        {"argv": ["eval", "(" * DEEP_NESTING + a + ")" * DEEP_NESTING], "error": "deep_nesting",
         "code": 1, "offset": True},
    ]


def eval_requests(seed: int, size: int) -> list[dict]:
    """eval_cli requests: eval, convert and roots over 1-4 operators, dims 2-8 and
    s3, both orientations, text and json, plus one of each error input."""
    rng = random.Random(f"eval_cli:{seed}")
    out = _error_requests(rng)
    while len(out) < size:
        pick = rng.random()
        fmt = "json" if rng.random() < 0.3 else "text"
        cw = rng.random() < 0.5
        shape, steps = _random_shape(rng, 8), rng.randint(1, 4)
        if pick < 0.6:
            node, expected = _draw(rng, shape, steps, True, cw,
                                   lambda t, o: oracle.project(*oracle.expect(t, o), o))
            head = ["eval"]
        elif pick < 0.85:
            to = rng.choice(("polar", "cartesian"))
            node, expected = _draw(rng, shape, steps, False, cw,
                                   lambda t, o: oracle.expect_convert(t, o, to))
            head = ["convert", "--to", to]
        else:
            n = rng.randint(1, 6)
            node, expected = _draw(rng, shape, steps, False, cw,
                                   lambda t, o: oracle.expect(("roots", t, n), o))
            head = ["roots"]
        argv = head + ["--orientation", "cw" if cw else "ccw", "--format", fmt, "--", gen.render(node)]
        if head == ["roots"]:
            argv.append(str(n))
        form, kind, want = expected
        out.append({"argv": argv, "fmt": fmt, "cw": cw, "form": form, "oracle": kind,
                    "want": want})
    rng.shuffle(out)
    return out


def check_value(item: dict, text: str) -> bool:
    """True when printed output ``text`` agrees with the item's oracle."""
    try:
        got = oracle.parse_output(text, item.get("fmt", "text"), item["form"])
    except (ValueError, KeyError, TypeError, IndexError):
        return False
    return oracle.matches(got, item["form"], item["oracle"], item["want"], item["cw"])


def check_error(item: dict, code: int, stderr: str) -> bool:
    """True when an error request ended with its documented outcome: the
    documented exit code and a one-line ``hsc:`` message, no traceback."""
    if code != item["code"] or "Traceback" in stderr or not stderr.startswith("hsc:"):
        return False
    return "offset" in stderr or not item["offset"]
