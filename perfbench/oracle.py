"""Output oracles that do not run the code being timed.

Three oracles follow the evaluator's documented semantics on the generator's
own trees (see :mod:`gen`):

* ``complex`` -- builtin complex arithmetic, for N = 2 chains;
* ``rotation`` -- angle chains summed in floats and projected by
  ``hyperspace.rotation.build_by_rotations`` (ascending axes for ccw,
  descending for cw), for chains of p-literals under ``*``, ``/``, ``^n``;
* ``mpmath`` -- 50-digit arithmetic, wherever canonical angles must be
  re-derived from coordinates (after a sum, a conj, a lift, a c-literal).

The mpmath pass also screens generated inputs: it raises :class:`Reject`
when a canonical angle lies within ``SEAM_MARGIN`` of a chart seam (where
two correct programs may pick different representatives), when a sum
cancels badly, or when a modulus leaves a range where doubles keep the
default tolerance.  Rejected inputs are redrawn by the generator.

Values are compared at the default ``Tolerance`` against the value's scale.
"""

from __future__ import annotations

import cmath
import json
import math
import re

import mpmath

from hyperspace.core import DEFAULT_TOLERANCE
from hyperspace.rotation import RotationChain, build_by_rotations

from gen import dims_of, family_of, is_polar_only

SEAM_MARGIN = 1e-4
MAX_CANCELLATION = 1e4
MODULUS_RANGE = (1e-6, 1e6)
ABS_EPS = DEFAULT_TOLERANCE.abs_eps
REL_EPS = DEFAULT_TOLERANCE.rel_eps


class Reject(Exception):
    """A generated input sits too close to a seam or is ill-conditioned."""


# ---------------------------------------------------------------------------
# value forms, as the evaluator carries them

def form_of(node) -> str:
    """Form of the evaluator's result: cart, polar, s3, s3p, scalar, roots."""
    kind = node[0]
    if kind in ("c", "p", "s3", "s3p"):
        return {"c": "cart", "p": "polar", "s3": "s3", "s3p": "s3p"}[kind]
    if kind in ("abs", "arg"):
        return "scalar"
    if kind == "roots":
        return "roots"
    s3 = family_of(node) == "s3"
    if kind == "pow" or (kind == "bin" and node[1] in ("*", "/")):
        return "s3p" if s3 else "polar"
    return "s3" if s3 else "cart"


def oracle_kind(node) -> str:
    if family_of(node) == "nd":
        if dims_of(node) == {2}:
            return "complex"
        if is_polar_only(node):
            return "rotation"
    return "mpmath"


# ---------------------------------------------------------------------------
# mpmath oracle

def _check_modulus(r) -> None:
    if not MODULUS_RANGE[0] <= r <= MODULUS_RANGE[1]:
        raise Reject("modulus out of range")


def _seam_full(a) -> None:
    if a < SEAM_MARGIN or 2 * mpmath.pi - a < SEAM_MARGIN:
        raise Reject("full-range angle at its seam")


def _mp_to_polar(c, cw: bool):
    """Canonical chain of coordinates ``c`` (mirrors core.arguments)."""
    n = len(c)
    r = mpmath.sqrt(mpmath.fsum(x * x for x in c))
    _check_modulus(r)
    last = n - 1 if cw else 1
    full = mpmath.atan2(c[last], c[0])
    if full < 0:
        full += 2 * mpmath.pi
    _seam_full(full)
    m = mpmath.hypot(c[0], c[last])
    rest = []
    for k in (range(n - 2, 0, -1) if cw else range(2, n)):
        a = mpmath.atan2(c[k], m)
        if mpmath.pi / 2 - abs(a) < SEAM_MARGIN:
            raise Reject("half-range angle at its seam")
        rest.append(a)
        m = mpmath.hypot(m, c[k])
    if cw:
        rest.reverse()
        return r, rest + [full]
    return r, [full] + rest


def _mp_from_polar(r, angles, cw: bool):
    n = len(angles) + 1
    cos = [mpmath.cos(a) for a in angles]
    sin = [mpmath.sin(a) for a in angles]
    out = [mpmath.mpf(0)] * n
    if cw:
        prefix = [mpmath.mpf(1)] * (n + 1)
        for j in range(1, n):
            prefix[j] = prefix[j - 1] * cos[j - 1]
        out[0] = r * prefix[n - 1]
        for k in range(1, n):
            out[k] = r * sin[k - 1] * prefix[k - 1]
    else:
        suffix = [mpmath.mpf(1)] * (n + 1)
        for j in range(n - 1, 0, -1):
            suffix[j] = suffix[j + 1] * cos[j - 1]
        out[0] = r * suffix[1]
        for k in range(1, n):
            out[k] = r * sin[k - 1] * suffix[k + 1]
    return out


def _mp_to_polar3(c):
    a, b, z = c
    r = mpmath.sqrt(a * a + b * b + z * z)
    _check_modulus(r)
    r_yz = mpmath.hypot(b, z)
    theta = mpmath.atan2(r_yz, a)
    if theta < SEAM_MARGIN or mpmath.pi - theta < SEAM_MARGIN:
        raise Reject("master angle at a pole")
    phi = mpmath.atan2(z, b)
    if phi < 0:
        phi += 2 * mpmath.pi
    _seam_full(phi)
    return r, theta, phi


def _mp_from_polar3(r, theta, phi):
    st = mpmath.sin(theta)
    return [r * mpmath.cos(theta), r * st * mpmath.cos(phi), r * st * mpmath.sin(phi)]


class _MP:
    """Evaluator semantics over mpmath numbers (see hyperspace.expr.evaluate)."""

    def __init__(self, cw: bool):
        self.cw = cw

    def cart(self, v):
        if v[0] == "polar":
            return _mp_from_polar(v[1], v[2], self.cw)
        if v[0] == "s3p":
            return _mp_from_polar3(*v[1:])
        return v[1]

    def chain(self, v):
        if v[0] == "polar":
            return v[1], v[2]
        return _mp_to_polar(v[1], self.cw)

    def chain3(self, v):
        if v[0] == "s3p":
            return v[1:]
        return _mp_to_polar3(v[1])

    def __call__(self, node):
        kind = node[0]
        if kind == "c":
            return ("cart", [mpmath.mpf(x) for x in node[1]])
        if kind == "p":
            return ("polar", mpmath.mpf(node[1]), [mpmath.mpf(a) for a in node[2]])
        if kind == "s3":
            return ("s3", [mpmath.mpf(x) for x in node[1]])
        if kind == "s3p":
            return ("s3p", mpmath.mpf(node[1]), mpmath.mpf(node[2]), mpmath.mpf(node[3]))
        if kind == "bin":
            return self.binary(node[1], self(node[2]), self(node[3]))
        v = self(node[1])
        s3 = v[0] in ("s3", "s3p")
        cart_tag = "s3" if s3 else "cart"
        if kind == "neg":
            return (cart_tag, [-x for x in self.cart(v)])
        if kind == "conj":
            c = self.cart(v)
            return (cart_tag, [c[0]] + [-x for x in c[1:]])
        if kind == "lift":
            c = self.cart(v)
            return ("cart", c + [mpmath.mpf(node[2])])
        if kind == "pow":
            n = node[2]
            if s3:
                r, th, ph = self.chain3(v)
                r = r ** n
                _check_modulus(r)
                return ("s3p", r, n * th, n * ph)
            r, angles = self.chain(v)
            r = r ** n
            _check_modulus(r)
            return ("polar", r, [n * a for a in angles])
        if kind == "abs":
            if v[0] in ("polar", "s3p"):
                return ("scalar", v[1])
            return ("scalar", mpmath.sqrt(mpmath.fsum(x * x for x in v[1])))
        if kind == "arg":
            k = node[2]
            if s3:
                _, th, ph = _mp_to_polar3(self.cart(v))
                return ("scalar", th if k == 1 else ph)
            return ("scalar", _mp_to_polar(self.cart(v), self.cw)[1][k - 1])
        if kind == "roots":
            return ("roots", self.roots(v, node[2]))
        raise ValueError(f"unknown node {kind!r}")

    def binary(self, op, lv, rv):
        s3 = lv[0] in ("s3", "s3p")
        if op in ("+", "-"):
            a, b = self.cart(lv), self.cart(rv)
            out = [x + y if op == "+" else x - y for x, y in zip(a, b)]
            big = max(abs(x) for x in a + b)
            if max(abs(x) for x in out) * MAX_CANCELLATION < big:
                raise Reject("sum cancels")
            return ("s3" if s3 else "cart", out)
        if s3:
            (r1, t1, p1), (r2, t2, p2) = self.chain3(lv), self.chain3(rv)
            if op == "*":
                r, t, p = r1 * r2, t1 + t2, p1 + p2
            else:
                r, t, p = r1 / r2, t1 - t2, p1 - p2
            _check_modulus(r)
            return ("s3p", r, t, p)
        (r1, a1), (r2, a2) = self.chain(lv), self.chain(rv)
        if op == "*":
            r, angles = r1 * r2, [x + y for x, y in zip(a1, a2)]
        else:
            r, angles = r1 / r2, [x - y for x, y in zip(a1, a2)]
        _check_modulus(r)
        return ("polar", r, angles)

    def roots(self, v, n):
        if v[0] in ("s3", "s3p"):
            r, th, ph = _mp_to_polar3(self.cart(v))
            rr = r ** (mpmath.mpf(1) / n)
            return [("s3", _mp_from_polar3(rr, (th + 2 * mpmath.pi * m) / n,
                                           (ph + 2 * mpmath.pi * m) / n)) for m in range(n)]
        r, angles = _mp_to_polar(self.cart(v), self.cw)
        rr = r ** (mpmath.mpf(1) / n)
        return [("cart", _mp_from_polar(rr, [(a + 2 * mpmath.pi * m) / n for a in angles], self.cw))
                for m in range(n)]


def _to_float(v):
    tag = v[0]
    if tag in ("cart", "s3"):
        return (tag, [float(x) for x in v[1]])
    if tag == "polar":
        return (tag, float(v[1]), [float(a) for a in v[2]])
    if tag == "s3p":
        return (tag, float(v[1]), float(v[2]), float(v[3]))
    if tag == "scalar":
        return (tag, float(v[1]))
    return (tag, [_to_float(x) for x in v[1]])


def screen(node, cw: bool):
    """Run the mpmath oracle; raises Reject for inputs no oracle can judge."""
    with mpmath.workdps(50):
        return _to_float(_MP(cw)(node))


# ---------------------------------------------------------------------------
# complex oracle (N = 2) and rotation oracle (polar-only chains)

def _complex(node):
    kind = node[0]
    if kind == "c":
        return complex(*node[1])
    if kind == "p":
        return cmath.rect(node[1], node[2][0])
    if kind == "bin":
        a, b, op = _complex(node[2]), _complex(node[3]), node[1]
        return a + b if op == "+" else a - b if op == "-" else a * b if op == "*" else a / b
    z = _complex(node[1])
    if kind == "neg":
        return -z
    if kind == "conj":
        return z.conjugate()
    if kind == "pow":
        return z ** node[2]
    if kind == "abs":
        return abs(z)
    if kind == "arg":
        return cmath.phase(z) % (2 * math.pi)
    if kind == "roots":
        n = node[2]
        phase = cmath.phase(z) % (2 * math.pi)
        return [cmath.rect(abs(z) ** (1.0 / n), (phase + 2 * math.pi * m) / n) for m in range(n)]
    raise ValueError(f"complex oracle cannot follow {kind!r}")


def _float_chain(node):
    """(modulus, angles) of a polar-only chain, summed as the evaluator does."""
    kind = node[0]
    if kind == "p":
        return node[1], list(node[2])
    if kind == "pow":
        r, a = _float_chain(node[1])
        return math.pow(r, node[2]), [node[2] * x for x in a]
    (r1, a1), (r2, a2) = _float_chain(node[2]), _float_chain(node[3])
    if node[1] == "*":
        return r1 * r2, [x + y for x, y in zip(a1, a2)]
    return r1 / r2, [x - y for x, y in zip(a1, a2)]


def rotation_point(r: float, angles, cw: bool) -> list[float]:
    n = len(angles) + 1
    axes = range(n - 1, 0, -1) if cw else range(1, n)
    steps = tuple((k, float(angles[k - 1])) for k in axes)
    return list(build_by_rotations(RotationChain(float(r), steps, n)).coeffs)


# ---------------------------------------------------------------------------
# expectations and output checking

def expect(node, cw: bool):
    """Expected result of evaluating ``node``: (form, oracle, value).

    ``value`` is the oracle's result in the mpmath value layout, except that
    the complex oracle yields Python complex numbers.  Raises Reject.
    """
    screened = screen(node, cw)
    kind = oracle_kind(node)
    if kind == "complex":
        return form_of(node), kind, _complex(node)
    if kind == "rotation":
        r, angles = _float_chain(node)
        return form_of(node), kind, ("polar", r, angles)
    return form_of(node), kind, screened


def _close(got, want, scale=None) -> bool:
    if len(got) != len(want):
        return False
    if scale is None:
        scale = max(abs(x) for x in list(got) + list(want))
    allow = max(ABS_EPS, REL_EPS * scale)
    return all(abs(x - y) <= allow for x, y in zip(got, want))


def _point(kind, value, cw: bool) -> list[float]:
    """Coordinates of an expected (non-roots, non-scalar) value."""
    if kind == "complex":
        return [value.real, value.imag]
    tag = value[0]
    if tag in ("cart", "s3"):
        return list(value[1])
    if tag == "polar":
        if kind == "rotation":
            return rotation_point(value[1], value[2], cw)
        with mpmath.workdps(50):
            return [float(x) for x in _mp_from_polar(mpmath.mpf(value[1]), [mpmath.mpf(a) for a in value[2]], cw)]
    with mpmath.workdps(50):
        return [float(x) for x in _mp_from_polar3(*(mpmath.mpf(x) for x in value[1:]))]


def _polar_point(kind, r, angles, cw: bool) -> list[float]:
    if kind == "complex":
        z = cmath.rect(r, angles[0])
        return [z.real, z.imag]
    return _point(kind, ("polar", r, angles), cw)


_PATTERNS = (
    ("cart", re.compile(r"c\[(.*)\]")),
    ("polar", re.compile(r"p\[(.*?); (.*)\]")),
    ("s3", re.compile(r"s3\[(.*)\]")),
    ("s3p", re.compile(r"s3p\[(.*?); (.*)\]")),
)


def parse_text(line: str):
    """One printed value in the literal grammar -> (form, numbers...)."""
    line = line.strip()
    for form, pat in _PATTERNS:
        m = pat.fullmatch(line)
        if m is None:
            continue
        if form in ("cart", "s3"):
            return (form, [float(x) for x in m.group(1).split(",")])
        r = float(m.group(1))
        angles = [float(x) for x in m.group(2).split(",")]
        return (form, r, angles) if form == "polar" else (form, r, angles[0], angles[1])
    return ("scalar", float(line))


def parse_json(payload: dict):
    kind = payload["kind"]
    if kind == "cartesian":
        return ("cart", payload["coeffs"])
    if kind == "polar":
        return ("polar", payload["modulus"], payload["angles"])
    if kind == "space3":
        return ("s3", [payload["a"], payload["b"], payload["c"]])
    if kind == "space3polar":
        return ("s3p", payload["modulus"], payload["theta"], payload["phi"])
    if kind == "scalar":
        return ("scalar", payload["value"])
    return ("roots", [parse_json(p) for p in payload["roots"]])


def parse_output(text: str, fmt: str, form: str):
    if fmt == "json":
        return parse_json(json.loads(text))
    lines = text.strip().split("\n")
    if form == "roots":
        return ("roots", [parse_text(x) for x in lines])
    if len(lines) != 1:
        raise ValueError("expected one line of output")
    return parse_text(lines[0])


def _match_chain(got_r, got_angles, want_r, want_angles, got_point, want_point) -> bool:
    """A printed angle chain against the oracle's: modulus, angles, and the
    point they denote.  An angle carries absolute error in proportion to its
    size, so the point is judged against the modulus times that size."""
    spin = max([1.0] + [abs(a) for a in list(got_angles) + list(want_angles or [])])
    if want_angles is not None and not (
            _close([got_r], [want_r]) and _close(got_angles, want_angles, spin)):
        return False
    scale = spin * max(abs(x) for x in list(got_point) + list(want_point))
    return _close(got_point, want_point, scale)


def _match_one(got, form, kind, want, cw: bool) -> bool:
    if got[0] != form:
        return False
    if form == "scalar":
        return _close([got[1]], [want if kind == "complex" else want[1]])
    if form in ("cart", "s3"):
        return _close(got[1], _point(kind, want, cw))
    if form == "polar":
        want_chain = (None, None) if kind == "complex" else (want[1], want[2])
        return _match_chain(got[1], got[2], *want_chain,
                            _polar_point(kind, got[1], got[2], cw), _point(kind, want, cw))
    return _match_chain(got[1], got[2:], want[1], want[2:],
                        _point(kind, got, cw), _point(kind, want, cw))


def matches(got, form: str, kind: str, want, cw: bool) -> bool:
    """True when a parsed output agrees with an expectation from expect()."""
    if form != "roots":
        return _match_one(got, form, kind, want, cw)
    items = want if kind == "complex" else want[1]
    if got[0] != "roots" or len(got[1]) != len(items):
        return False
    sub = "cart" if kind == "complex" else items[0][0]
    return all(_match_one(g, sub, kind, w, cw) for g, w in zip(got[1], items))


def expect_convert(node, cw: bool, to: str):
    """Expected result of ``hsc convert --to {polar,cartesian}``."""
    with mpmath.workdps(50):
        mp = _MP(cw)
        v = mp(node)
        s3 = v[0] in ("s3", "s3p")
        point = mp.cart(v)
        if to == "cartesian":
            return ("s3" if s3 else "cart"), "mpmath", _to_float(("s3" if s3 else "cart", point))
        if s3:
            return "s3p", "mpmath", _to_float(("s3p",) + tuple(_mp_to_polar3(point)))
        return "polar", "mpmath", _to_float(("polar",) + tuple(_mp_to_polar(point, cw)))


def project(form: str, kind: str, want, cw: bool):
    """Expectation after ``hsc eval`` projects an angle chain to coordinates."""
    if form == "polar":
        return "cart", kind, want if kind == "complex" else ("cart", _point(kind, want, cw))
    if form == "s3p":
        return "s3", kind, ("s3", _point(kind, want, cw))
    return form, kind, want
