"""Randomized audit of claimed algebraic identities.

Every law draws seeded random operands, evaluates both sides of the claimed
identity and tallies agreement within a tolerance.  Laws split into two
kinds:

* normative laws are invariants of the angle-addition semantics itself
  (commutativity, angle-level associativity, the conjugate identity, de
  Moivre power-vs-fold, root correctness, agreement with classic complex
  arithmetic at N = 2).  These must pass at rate 1.0; a failure is a bug.
* hypothesis laws are claims the system does not actually guarantee:
  distributivity over coordinate sums for N >= 3, and agreement of the
  expanded coefficient formulas with the normative route.  These are
  *measured*; failures are captured as reproducible counterexamples, never
  patched.

Each law is declared once, in the ``_LAWS`` table: operand count, fixed
dimension, draw, drawn integers, normative flag, and its claims, written once
over operations that two evaluators name alike.

Determinism contract: each sample's stream is exactly numpy's
``SeedSequence((seed, law code, dim, sample index))`` seeding a PCG64, the
law code being the law's index in ``_LAWS``, so per-sample results are
independent of evaluation order and stable under parallel execution.  The
audit has one source of random numbers: ``audit_law`` seeds a block of
samples once (``_seed_words``), computes one words array for it
(``_stream_words``: PCG64 on (high, low) pairs of uint64 words), and every
draw reads it by position (``_read``, which computes a row's words past it
from the row's seed words) as numpy's ``Generator`` would.  A sample's
operands are the first attempts of its stream that are not nearly singular
(tiny modulus, or a canonical angle within 1e-8 of a range boundary); the
others are redrawn and counted, separating law violations from float
pathology near the chart seams.  ``_draw_block`` draws every attempt of a
block once, then ``_integers`` every integer.  ``audit_law`` judges every
sample with its block as float64 columns (``_columns.Columns``), bit for bit
what the library's functions (``_VALUES``) compute, in numpy calls whose
count does not grow with the dimension, the literal coefficient formulas'
O(N) calls apart; the N = 2 ``complex`` oracle runs per sample.  The
library's functions only replay a cell's first failing sample, on the
operands and integers its block drew.

``run_audit`` splits its cells over the CPUs ``os.sched_getaffinity``
reports (``_run_cells``): largest estimated cost first to the least loaded
process, this one and a worker ``os.fork``ed per further CPU once numpy is
loaded, each piping its pickled results back.  The results return in cell
order, so a report's bytes do not depend on the split.

Bounds: at most 2**32 samples per cell (the sample index is one 32-bit seed
word) and dimensions up to ``MAX_DIM``, so one sample's first attempt fits
in a block of ``_BLOCK_WORDS`` words, which holds few samples at a high N.
"""

from __future__ import annotations

import cmath
import datetime as _dt
import json
import math
import operator
import os
import warnings
from enum import Enum
from functools import lru_cache, partial
from types import SimpleNamespace

from ._version import VERSION
from .core import (
    TWO_PI,
    CartesianHC,
    DEFAULT_TOLERANCE,
    Orientation,
    Tolerance,
    _Frozen,
    _cartesian,
    _literal,
    canonical_ranges,
    closeness,
    conjugate,
    from_polar,
    make_cartesian,
    make_polar,
    modulus,
    to_dict,
    to_polar,
)
from . import algebra, coeff_formulas, space3

_ACW = Orientation.ANTICLOCKWISE
_S3 = Orientation.S3
_SINGULAR_MODULUS = 1e-8
_ANGLE_MARGIN = 1e-8
_MAX_REDRAWS = 128
MAX_DIM = 4096  # the largest power of two whose first attempt fits in _BLOCK_WORDS


class Domain(Enum):
    """Operand sampling domain."""

    UNRESTRICTED = "unrestricted"
    POSITIVE_RESTRICTED = "positive_restricted"

    @classmethod
    def _missing_(cls, value):
        known = ", ".join(d.value for d in cls)
        raise ValueError(f"unknown domain: {value!r} (known: {known})")


def _dims(dims) -> tuple[int, ...]:
    """Audited dimensions as ints; the one rule for ``AuditConfig`` and ``audit_law``."""
    dims = tuple(dims)
    if not dims or any(not hasattr(d, "__index__") or d < 2 for d in dims):
        raise ValueError(f"dims must be a nonempty list of ints >= 2, got {dims}")
    dims = tuple(map(operator.index, dims))  # ints, never truncated
    if any(d > MAX_DIM for d in dims):
        raise ValueError(f"dims must be at most {MAX_DIM}, got {dims}")
    if len(set(dims)) < len(dims):
        raise ValueError(f"dims must not repeat, got {dims}")
    return dims


class AuditConfig(_Frozen):
    __slots__ = _fields = ("dims", "samples", "seed", "tolerance", "domain")

    def __init__(self, dims: tuple[int, ...] = (2, 3, 4), samples: int = 1000, seed: int = 42,
                 tolerance: Tolerance = DEFAULT_TOLERANCE, domain: Domain = Domain.UNRESTRICTED) -> None:
        dims = _dims(dims)
        for name, value in (("samples", samples), ("seed", seed)):  # ints, as _dims takes them
            if not hasattr(value, "__index__"):
                raise ValueError(f"{name} must be an int, got {value!r}")
        samples, seed = operator.index(samples), operator.index(seed)
        if samples < 1:
            raise ValueError(f"samples must be >= 1, got {samples}")
        if samples > 2**32:  # the sample index is one 32-bit seed word
            raise ValueError(f"samples must be at most 2**32, got {samples}")
        if not 0 <= seed < 2**64:
            raise ValueError(f"seed must fit in 64 unsigned bits, got {seed}")
        if not isinstance(tolerance, Tolerance):  # read in each cell, maybe in a worker
            raise TypeError(f"tolerance must be a Tolerance, got {tolerance!r}")
        _Frozen.__init__(self, dims, samples, seed, tolerance, Domain(domain))


class LawResult(_Frozen):
    """Tally for one (law, dim) cell: law, dim, samples, passes, max_dev,
    counterexample (a dict, or None) and resamples.

    ``dim`` echoes the requested dimension; laws with an intrinsic dimension
    (the N = 2 classic check, the 3D laws) ignore it for operand
    construction but still derive their sample streams from it.
    """

    __slots__ = _fields = ("law", "dim", "samples", "passes", "max_dev", "counterexample", "resamples")

    @property
    def pass_rate(self) -> float:
        return self.passes / self.samples


class AuditReport(_Frozen):
    """An audit's config, its law ids, a LawResult per (law, dim), the
    package version and the UTC time it ran."""

    __slots__ = _fields = ("config", "laws", "results", "version", "generated_at")


# ---------------------------------------------------------------------------
# sampling

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx) and
# the 128-bit PCG multiplier (O'Neill, "PCG: A Family of Simple Fast
# Space-Efficient Statistically Good Algorithms for Random Number
# Generation", HMC-CS-2014-0905)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK64, _MASK128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
_POOL = 4
_BLOCK = 1024  # most samples the audit evaluates at once
_BLOCK_WORDS = 1 << 14  # most stream words it draws at once


def _seed_words(seed: int, code: int, dim: int, i0: int, m: int):
    """PCG64 seed words of samples i0 ... i0+m-1 of one cell, an (m, 4) uint64
    array: row i is ``SeedSequence((seed, code, dim, i0 + i)).generate_state(4,
    uint64)``, computed as uint32 array arithmetic over all m indices at once."""
    import numpy as np

    u32 = np.uint32

    def words(n: int) -> list[int]:  # an int's little-endian 32-bit words; 0 is one word
        return [n & _MASK32] + (words(n >> 32) if n >> 32 else [])

    if not 0 <= i0 <= i0 + m <= 2**32:
        raise ValueError("sample indices must fit in 32 bits")
    entropy = [np.full(m, w, u32) for w in words(seed) + words(code) + words(dim)]
    entropy.append(np.arange(i0, i0 + m, dtype=np.int64).astype(u32))

    def hasher(const: int, mult: int):  # a hash whose constant steps per call
        def hash_(v):
            nonlocal const
            v = v ^ u32(const)
            const = const * mult & _MASK32
            v = v * u32(const)
            return v ^ (v >> u32(16))
        return hash_

    def mix(x, y):
        r = u32(_MIX_L) * x - u32(_MIX_R) * y
        return r ^ (r >> u32(16))

    hashmix = hasher(_INIT_A, _MULT_A)
    zero = np.zeros(m, u32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for extra in entropy[_POOL:]:  # a seed of two words leaves the index over
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(extra))
    out = hasher(_INIT_B, _MULT_B)
    state = [out(pool[k % _POOL]).astype(np.uint64) for k in range(2 * _POOL)]
    # uint32 pairs, low word first, as uint64 by arithmetic (any byte order)
    return np.stack([state[k] | state[k + 1] << np.uint64(32) for k in range(0, 2 * _POOL, 2)], 1)


# 128-bit integers are (high, low) uint64 pairs, as in the seed words and PCG's C code
def _mul_hi(x, y):
    """The high words of the 128-bit products x * y of uint64 words."""
    x0, x1, y0, y1 = x & _MASK32, x >> 32, y & _MASK32, y >> 32
    t = x1 * y0 + (x0 * y0 >> 32)
    mid = (t & _MASK32) + x0 * y1
    return x1 * y1 + (t >> 32) + (mid >> 32)


def _mul(x, y):
    """x * y mod 2**128."""
    return _mul_hi(x[1], y[1]) + x[0] * y[1] + x[1] * y[0], x[1] * y[1]


def _add(x, y):
    """x + y mod 2**128."""
    lo = x[1] + y[1]
    return x[0] + y[0] + (lo < y[1]), lo


@lru_cache
def _pcg_jumps(k: int) -> tuple[tuple, tuple]:
    """(A_n, C_n), n = 2 ... k+1, as pairs: n PCG64 steps take a state x to
    A_n * x + C_n * inc.  Cached, so a cell computes them once."""
    import numpy as np

    a, c, ac = 1, 0, []
    for _ in range(k + 1):
        a, c = a * _PCG_MULT & _MASK128, (c * _PCG_MULT + 1) & _MASK128
        ac += (a, c)
    hi, lo = (np.array([v >> s & _MASK64 for v in ac[2:]], np.uint64) for s in (64, 0))
    return (hi[0::2], lo[0::2]), (hi[1::2], lo[1::2])


def _stream_words(seeds, k: int):
    """The first k outputs of the streams of (m, 4) ``_seed_words`` rows, an
    (m, k) uint64 array: row i is what ``random_raw(k)`` gives of numpy's
    PCG64 seeded by the SeedSequence whose state is row i.  PCG64 seeds
    from state 0 with the odd increment inc = 2 * seq + 1 (step, add the
    initial state, step); each output steps, then takes the XSL-RR of the
    state."""
    s0, s1, q0, q1 = (w[:, None] for w in seeds.T)
    inc = (q0 << 1 | q1 >> 63, q1 << 1 | 1)
    a, c = _pcg_jumps(k)
    hi, lo = _add(_mul(a, _add((s0, s1), inc)), _mul(c, inc))
    xor, rot = hi ^ lo, hi >> 58
    return xor >> rot | xor << (64 - rot & 63)


def _doubles(words):
    """``Generator.random``'s doubles of stream words: the top 53 bits."""
    return (words >> 11) * 2.0**-53


def _read(seeds, raw, rows, start, count: int):
    """Words start ... start+count-1 (start an int or one per row) of the
    streams of a block's rows: its words ``raw``, and words past them computed
    from the seed words of the rows that read there."""
    import numpy as np

    idx = np.add.outer(np.broadcast_to(start, rows.shape), np.arange(count))
    out = raw[rows[:, None], np.minimum(idx, raw.shape[1] - 1)]
    if (past := idx[:, -1] >= raw.shape[1]).any():
        more = _stream_words(seeds[rows[past]], int(idx[past, -1].max()) + 1)
        out[past] = np.take_along_axis(more, idx[past], axis=1)
    return out


def _integers(ranges, seeds, raw, start):
    """A block's integers, a row per range, as ``Generator.integers`` draws
    them from each row's 32-bit halves, a word's low half first, on from word
    ``start``: Lemire's method, a rejected half passing to the next (Lemire,
    "Fast Random Integer Generation in an Interval", ACM TOMACS 2019)."""
    import numpy as np

    out, half = np.zeros((len(ranges), len(raw)), np.int64), 2 * start
    for row, (lo, hi) in zip(out, ranges):
        todo = np.arange(len(raw))
        while len(todo):  # the rows whose every half so far was rejected
            word = _read(seeds, raw, todo, half[todo] >> 1, 1)[:, 0]
            m = np.where(half[todo] & 1, word >> 32, word & _MASK32) * (hi - lo)
            ok = m & _MASK32 >= 2**32 % (hi - lo)
            row[todo[ok]] = lo + (m[ok] >> 32).astype(np.int64)
            half[todo] += 1
            todo = todo[~ok]
    return out


def _uniform(lo: float, hi: float, u):
    """numpy's ``Generator.uniform(lo, hi)`` of standard doubles ``u``."""
    return lo + (hi - lo) * u


@lru_cache
def _bounds(chart: Orientation, dim: int):
    """The low and high ends of every canonical angle's range, as arrays."""
    import numpy as np

    lo, hi, _ = np.array(canonical_ranges(chart, dim)).T
    return lo, hi


def _draw(K, u, chart: Orientation, domain: Domain):
    """One attempt at an operand per row of u, as ``K.Rows`` in ``chart``, and
    the rows that are near singular: a modulus under ``_SINGULAR_MODULUS``,
    or a canonical angle within ``_ANGLE_MARGIN`` of its range's ends.  A row
    of u is an attempt's doubles: the magnitude, then the coefficients
    (unrestricted) or the angles (positive), K being ``hyperspace._columns``."""
    mag = K.mapped(partial(pow, 10.0), _uniform(-2.0, 2.0, u[:, 0]))
    v = u[:, 1:]
    if domain is Domain.UNRESTRICTED:
        c = _uniform(-1.0, 1.0, v) * mag[:, None]
    else:
        th = _uniform(-math.pi / 4, math.pi / 4, v)
        if chart is _S3:  # theta in [0, pi/4), phi wrapped to [0, 2*pi)
            th[:, 0] = _uniform(0.0, math.pi / 4, v[:, 0])
            th[:, 1] = K.mapped(lambda a: a % TWO_PI, th[:, 1])
        c = K.point(mag, th, chart)
    s = K.rows(c, chart)
    lo, hi = _bounds(chart, c.shape[1])
    edge = (s.t - lo < _ANGLE_MARGIN) | (hi - s.t < _ANGLE_MARGIN)
    return s, (s.r < _SINGULAR_MODULUS) | edge.any(axis=1)


# ---------------------------------------------------------------------------
# comparison

class _Distinct(dict):
    """Tags of a claim that its two sides differ."""


def _judge(claims, tol: Tolerance) -> tuple[float, tuple | None]:
    """Max deviation and the first failing ``(lhs, rhs, tags)`` claim, or None.
    A claim holds when its sides agree within ``tol``; one tagged ``_Distinct``
    holds when they do not, and adds nothing to the deviation."""
    dev = 0.0
    for lhs, rhs, tags in claims:
        ok, gap = closeness(lhs, rhs, tol)
        if isinstance(tags, _Distinct):
            ok = not ok
        else:
            dev = max(dev, gap)
        if not ok:
            return dev, (lhs, rhs, tags)
    return dev, None


# ---------------------------------------------------------------------------
# laws: (ops, ints, *operands) -> [(lhs, rhs, tags), ...], each written once
# and run by two evaluators that name the same operations: ``_VALUES``, the
# library's own functions on one sample's numbers, and ``_columns.Columns`` of
# the law's chart on a block of samples.  ints holds the integers the law's
# table entry declares, drawn after the operands; on a block, a column per
# integer, the last being one int that the block's rows share.

_POW_ORDERS, _ROOT_ORDERS, _DEMOIVRE_ORDERS = (-4, 9), (1, 7), (0, 9)

_VALUES = SimpleNamespace(
    add=algebra.add, mul=algebra.mul, div=algebra.div, pow_int=algebra.pow_int,
    nth_roots=algebra.nth_roots, mul_polar=algebra.mul_polar,
    pow_int_polar=algebra.pow_int_polar, nth_roots_polar=algebra.nth_roots_polar,
    to_polar=to_polar, from_polar=from_polar, conjugate=conjugate, modulus=modulus,
    conj3_polar=space3.conj3_polar,
    real=lambda x, like: make_cartesian(like.orientation, (x,) + (0.0,) * (like.dim - 1)),
    unit=lambda p: make_polar(p.orientation, 1.0, (0.0,) * (p.dim - 1)),
    formula=lambda body, a, b: _literal(body, a, b, None).assembled,
    to_complex=lambda s: complex(*s.coeffs),
    each=lambda f, *args: f(*args),
    classic=lambda z: CartesianHC((z.real, z.imag)),
    fmt=str.format,
)


def _law_add_commutative(ops, ints, s1, s2):
    return [(ops.add(s1, s2), ops.add(s2, s1), {})]


def _law_add_associative(ops, ints, s1, s2, s3):
    return [(ops.add(ops.add(s1, s2), s3), ops.add(s1, ops.add(s2, s3)), {})]


def _law_mul_commutative(ops, ints, s1, s2):
    return [(ops.mul(s1, s2), ops.mul(s2, s1), {})]


def _law_mul_associative(ops, ints, *operands):
    # Composition stays at the angle level, where products associate; the
    # conversion boundaries (operands in, result out) are part of the test.
    p1, p2, p3 = map(ops.to_polar, operands)
    lhs = ops.from_polar(ops.mul_polar(ops.mul_polar(p1, p2), p3))
    rhs = ops.from_polar(ops.mul_polar(p1, ops.mul_polar(p2, p3)))
    return [(lhs, rhs, {})]


def _law_distributive(ops, ints, s, t1, t2):
    lhs = ops.mul(s, ops.add(t1, t2))
    rhs = ops.add(ops.mul(s, t1), ops.mul(s, t2))
    return [(lhs, rhs, {})]


def _law_conj_modulus(ops, ints, s):
    r = ops.modulus(s)
    return [(ops.mul(s, ops.conjugate(s)), ops.real(r * r, s), {})]


def _law_n2_classic_equiv(ops, ints, s1, s2):
    # Always checked at N = 2 against the textbook complex oracle, row by row;
    # each operand's complex value, root modulus and phase are taken once.
    n_pow, n = ints
    z1, z2 = ops.to_complex(s1), ops.to_complex(s2)
    root_r = ops.each(lambda z: abs(z) ** (1.0 / n), z1)
    phase = ops.each(lambda z: cmath.phase(z) % TWO_PI, z1)
    return [
        (ops.mul(s1, s2), ops.classic(ops.each(operator.mul, z1, z2)), {"check": "mul"}),
        (ops.div(s1, s2), ops.classic(ops.each(operator.truediv, z1, z2)), {"check": "div"}),
        (ops.pow_int(s1, n_pow), ops.classic(ops.each(operator.pow, z1, n_pow)),
         {"check": ops.fmt("pow {}", n_pow)}),
    ] + [
        (root, ops.classic(ops.each(lambda r, a, m=m: cmath.rect(r, (a + TWO_PI * m) / n), root_r, phase)),
         {"check": f"root {m}/{n}"})
        for m, root in enumerate(ops.nth_roots(s1, n))
    ]


def _law_roots_correct(ops, ints, s):
    # Roots power back through their own chains (angle level); the list of
    # coordinate projections must be pairwise distinct.
    n = ints[-1]
    chains = ops.nth_roots_polar(ops.to_polar(s), n)
    roots = [ops.from_polar(p) for p in chains]
    backs = [
        (ops.from_polar(ops.pow_int_polar(chain, n)), s, {"root_index": m, "order": n})
        for m, chain in enumerate(chains)
    ]
    return backs + [
        (roots[i], roots[j], _Distinct(note=f"roots {i} and {j} coincide"))
        for i in range(n)
        for j in range(i + 1, n)
    ]


def _law_demoivre(ops, ints, s):
    n = ints[-1]
    p = ops.to_polar(s)
    acc = ops.unit(p)
    for _ in range(n):
        acc = ops.mul_polar(acc, p)
    return [(ops.pow_int(s, n), ops.from_polar(acc), {"order": n})]


def _agreement(normative, routes, ops, ints, s1, s2):
    """Two operands through the normative operation and every formula route."""
    nm = getattr(ops, normative)(s1, s2)
    return [(ops.formula(body, s1, s2), nm, {"route": label}) for label, body in routes]


# (label, formula body), run in the operands' chart, which is the law's; the
# public formula functions run the same bodies
_CARTESIAN_MUL_ROUTES = [("general", coeff_formulas._mul_general), ("coordinate", coeff_formulas._mul_coordinate)]
_CARTESIAN_DIV_ROUTES = [("general", coeff_formulas._div_general), ("coordinate", coeff_formulas._div_coordinate)]
_SPACE3_MUL_ROUTES = [("coefficients", space3._mul3_coeffs)]
_SPACE3_DIV_ROUTES = [("coefficients", space3._div3_coeffs)]


def _law_space3_conj_modulus(ops, ints, s):
    p = ops.to_polar(s)
    r = ops.modulus(s)
    return [(ops.from_polar(ops.mul_polar(p, ops.conj3_polar(p))), ops.real(r * r, s), {})]


class _Law(_Frozen):
    # claims: (ops, ints, *operands) -> [(lhs, rhs, tags), ...]
    # operands: how many; normative: whether the law must hold
    # dim: the operand dimension if fixed (None: the audited one)
    # chart: the operands' chart; ints: integer ranges drawn after the operands
    __slots__ = _fields = ("claims", "operands", "normative", "dim", "chart", "ints")
    _defaults = {"dim": None, "chart": _ACW, "ints": ()}


def _agreement_law(normative: str, routes, **kw) -> _Law:
    return _Law(partial(_agreement, normative, routes), 2, False, **kw)


# The order is part of the determinism contract: a law's index seeds its streams.
_LAWS = {
    "add_commutative": _Law(_law_add_commutative, 2, True),
    "add_associative": _Law(_law_add_associative, 3, True),
    "mul_commutative": _Law(_law_mul_commutative, 2, True),
    "mul_associative": _Law(_law_mul_associative, 3, True),
    "distributive": _Law(_law_distributive, 3, False),
    "conj_modulus": _Law(_law_conj_modulus, 1, True),
    "n2_classic_equiv": _Law(_law_n2_classic_equiv, 2, True, dim=2, ints=(_POW_ORDERS, _ROOT_ORDERS)),
    "roots_correct": _Law(_law_roots_correct, 1, True, ints=(_ROOT_ORDERS,)),
    "demoivre": _Law(_law_demoivre, 1, True, ints=(_DEMOIVRE_ORDERS,)),
    "cartesian_mul_agreement": _agreement_law("mul", _CARTESIAN_MUL_ROUTES),
    "cartesian_div_agreement": _agreement_law("div", _CARTESIAN_DIV_ROUTES),
    "space3_mul_agreement": _agreement_law("mul", _SPACE3_MUL_ROUTES, dim=3, chart=_S3),
    "space3_div_agreement": _agreement_law("div", _SPACE3_DIV_ROUTES, dim=3, chart=_S3),
    "space3_conj_modulus": _Law(_law_space3_conj_modulus, 1, True, dim=3, chart=_S3),
}

LAW_IDS: tuple[str, ...] = tuple(_LAWS)
NORMATIVE_LAWS = frozenset(law for law in LAW_IDS if _LAWS[law].normative)
HYPOTHESIS_LAWS = frozenset(LAW_IDS) - NORMATIVE_LAWS


def _law(law: str) -> _Law:
    """The table entry of a law id; the one place an unknown id is rejected."""
    if law not in _LAWS:
        raise ValueError(f"unknown law id: {law!r} (known: {', '.join(LAW_IDS)})")
    return _LAWS[law]


def _words(spec: _Law, dim: int, domain: Domain) -> tuple[int, int]:
    """The doubles n of a sample's first attempt, and the words k its block
    computes: n, then a word for every two integers the law draws."""
    n = spec.operands * ((spec.dim or dim) + (domain is Domain.UNRESTRICTED))
    return n, n + (len(spec.ints) + 1) // 2


def _draw_block(K, spec: _Law, domain: Domain, seeds, raw, n: int):
    """A block's operands, one ``K.Rows`` each, and each row's redraws.  A
    sample's operands are the first attempts of its stream, w = n / operands
    words each, that ``_draw`` does not find near singular; at most
    ``_MAX_REDRAWS`` attempts in a row may be.  Round r draws, in one
    ``_draw``, attempt r of every sample still short: words r*w ... (r+1)*w-1."""
    import numpy as np

    m, w = len(raw), n // spec.operands
    got, run, redraws = np.zeros((3, m), int)  # by row: operands, near attempts in a row, redraws
    todo, r = np.arange(m), 0
    while len(todo):
        s, near = _draw(K, _doubles(_read(seeds, raw, todo, r * w, w)), spec.chart, domain)
        if r == 0:
            parts = [np.empty((spec.operands, *a.shape)) for a in s]
        ok = todo[~near]
        for whole, part in zip(parts, s):  # an attempt is the next operand its row lacks
            whole[got[ok], ok] = part[~near]
        got[ok] += 1
        run[todo] = (run[todo] + 1) * near
        redraws[todo] += near
        if run.max() >= _MAX_REDRAWS:
            raise RuntimeError("exhausted redraws for a non-singular operand")
        todo, r = todo[got[todo] < spec.operands], r + 1
    return [K.Rows(*part) for part in zip(*parts)], redraws


def _sample(cfg: AuditConfig, spec: _Law, operands, ints, j: int):
    """The counterexample replay: row j of a block's operands and integers,
    exactly as the block drew them, through the library's functions:
    (operands, deviation, failing claim or None)."""
    drawn = [_cartesian(spec.chart, tuple(s.c[j].tolist())) for s in operands]
    ints = ints[: len(spec.ints), j].tolist()
    return (drawn, *_judge(spec.claims(_VALUES, ints, *drawn), cfg.tolerance))


def _column_block(spec: _Law, cfg: AuditConfig, n: int, seeds, raw):
    """Judge a block of one cell's samples as columns in the law's chart, on
    the operands ``_draw_block`` draws and the integers each sample draws
    after its last attempt.  Returns (deviation, failed, redraws, (operands,
    integers))."""
    import numpy as np

    from . import _columns as K  # loaded here: importing the audit loads no numpy

    m, ev = len(raw), K.Columns(spec.chart)
    operands, redraws = _draw_block(K, spec, cfg.domain, seeds, raw, n)
    ints = np.zeros((1, m), int)  # a row per integer; the last groups samples
    if spec.ints:  # past each sample's last attempt, of n / operands words
        ints = _integers(spec.ints, seeds, raw, n // spec.operands * (spec.operands + redraws))
    dev, failed = np.zeros(m), np.zeros(m, bool)
    for group in sorted(set(ints[-1].tolist())):
        sel = np.flatnonzero(ints[-1] == group)
        block_ints = (*ints[:-1, sel], group)[: len(spec.ints)]
        claims = spec.claims(ev, block_ints, *(s.take(sel) for s in operands))
        dev[sel], failed[sel] = K.judge(claims, cfg.tolerance, _Distinct)
    return dev, failed, int(redraws.sum()), (operands, ints)


def audit_law(law: str, cfg: AuditConfig, dim: int) -> LawResult:
    """Tally one law over cfg.samples seeded draws at one dimension."""
    spec, (d,) = _law(law), _dims((dim,))
    n, k = _words(spec, d, cfg.domain)
    # a block computes k <= n + 1 words a sample, at most _BLOCK_WORDS at any N
    rows = max(1, min(_BLOCK, _BLOCK_WORDS // (n + 1)))
    passes, max_dev, resamples, first_cex = 0, 0.0, 0, None
    for i0 in range(0, cfg.samples, rows):
        m = min(rows, cfg.samples - i0)
        seeds = _seed_words(cfg.seed, LAW_IDS.index(law), d, i0, m)
        raw = _stream_words(seeds, k)
        dev, failed, redraws, block = _column_block(spec, cfg, n, seeds, raw)
        resamples += redraws
        passes += m - int(failed.sum())
        max_dev = max(max_dev, float(dev.max()))
        if first_cex is None and failed.any():
            j = int(failed.argmax())
            drawn, replayed, claim = _sample(cfg, spec, *block, j)
            if claim is None or replayed != dev[j]:
                raise RuntimeError(f"{law} sample {i0 + j}: column and scalar verdicts differ")
            lhs, rhs, tags = claim
            first_cex = {
                "operands": [to_dict(s) for s in drawn],
                "lhs": to_dict(lhs),
                "rhs": to_dict(rhs),
                **tags,
                "sample_index": i0 + j,
            }
    return LawResult(law, d, cfg.samples, passes, max_dev, first_cex, resamples)


def select_laws(laws: list[str] | None = None) -> tuple[str, ...]:
    """The law ids to audit, all by default; an unknown or repeated id raises."""
    chosen = tuple(laws) if laws is not None else LAW_IDS
    for law in chosen:
        _law(law)
    if len(set(chosen)) < len(chosen):
        raise ValueError(f"law ids must not repeat, got {list(chosen)}")
    return chosen


def _shares(cfg: AuditConfig, cells, procs: int) -> list[list[int]]:
    """The cells' indices split over procs processes, each share in cell
    order: largest estimated cost first, to the least loaded process.  A
    cell's cost is estimated from the request alone: its samples times the
    words its block computes a sample, doubled for a law that draws an
    integer and tripled for one that draws two."""
    shares, loads = [[] for _ in range(procs)], [0] * procs
    costs = [cfg.samples * _words(_LAWS[law], dim, cfg.domain)[1] * (1 + len(_LAWS[law].ints))
             for law, dim in cells]
    for i in sorted(range(len(cells)), key=lambda i: -costs[i]):
        p = loads.index(min(loads))
        shares[p].append(i)
        loads[p] += costs[i]
    return [sorted(share) for share in shares]


def _run_share(cfg: AuditConfig, cells, share):
    """``audit_law`` of a share's cells in cell order, up to the first that
    raises: ({cell index: LawResult}, (cell index, exception) or None)."""
    results = {}
    for i in share:
        law, dim = cells[i]
        try:
            results[i] = audit_law(law, cfg, dim)
        except Exception as exc:
            return results, (i, exc)
    return results, None


def _fork(cfg: AuditConfig, cells, share):
    """A forked worker that runs a share and pipes back its pickled outcome:
    its pid and the pipe's read end, a binary file.  The worker leaves
    through ``os._exit``, never returning into the caller's stack."""
    import pickle

    r, w = os.pipe()
    # numpy's BLAS thread makes this process multi-threaded, and from Python
    # 3.12 on os.fork warns of that: a lock another thread holds stays held in
    # the child.  A worker runs only the audit's elementwise numpy calls and
    # never calls BLAS, so the warning is silenced here, for this call only.
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", r".*multi-threaded.*fork", DeprecationWarning)
        pid = os.fork()
    if pid:
        os.close(w)
        return pid, os.fdopen(r, "rb")
    code = 1
    try:
        os.close(r)
        with os.fdopen(w, "wb") as fh:
            pickle.dump(_run_share(cfg, cells, share), fh)
        code = 0
    finally:
        os._exit(code)


def _run_cells(cfg: AuditConfig, cells) -> list[LawResult]:
    """``audit_law`` of every (law, dim) cell, split over the usable CPUs.

    One share of the cells per CPU that ``os.sched_getaffinity`` reports, at
    most one per cell: this process runs the first share and one forked
    worker runs each other, forked once numpy and the column kernels are
    loaded, so no worker imports them again.  Where the call is missing
    (macOS, Windows) or reports one CPU, this process runs every cell and
    nothing forks.  Cells are independent, so the results are the same in
    any split; an exception is the one a single process would raise, the
    earliest failing cell's.  Every worker is reaped before this returns or
    raises, and killed first if it has not finished."""
    procs = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    shares = _shares(cfg, cells, max(1, min(procs, len(cells))))
    workers = {}  # pid -> the read end of its pipe
    try:
        if len(shares) > 1:
            import pickle

            from . import _columns  # noqa: F401  loaded before the fork, for every worker
            for share in shares[1:]:
                pid, fh = _fork(cfg, cells, share)
                workers[pid] = fh
        results, error = _run_share(cfg, cells, shares[0])
        errors = [error] if error else []
        for pid in list(workers):
            with workers[pid] as fh:
                data = fh.read()
            _, status = os.waitpid(pid, 0)
            del workers[pid]
            if status:
                raise RuntimeError(f"an audit worker exited with status {os.waitstatus_to_exitcode(status)}")
            done, error = pickle.loads(data)
            results.update(done)
            errors += [error] if error else []
        if errors:
            raise min(errors, key=lambda e: e[0])[1]
        return [results[i] for i in range(len(cells))]
    finally:
        for pid, fh in workers.items():  # left only by an exception or Ctrl-C
            import signal

            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            fh.close()


def run_audit(cfg: AuditConfig, laws: list[str] | None = None) -> AuditReport:
    """One LawResult per (law, dim); deterministic for a fixed config."""
    chosen = select_laws(laws)
    results = tuple(_run_cells(cfg, [(law, dim) for law in chosen for dim in cfg.dims]))
    stamp = _dt.datetime.now(_dt.timezone.utc).isoformat(timespec="seconds")
    return AuditReport(cfg, chosen, results, VERSION, stamp)


def has_failures(report: AuditReport) -> bool:
    return any(r.passes < r.samples for r in report.results)


def report_to_dict(report: AuditReport) -> dict:
    cfg = report.config
    return {
        "config": {
            "dims": list(cfg.dims),
            "samples": cfg.samples,
            "seed": cfg.seed,
            "tolerance": {"abs_eps": cfg.tolerance.abs_eps, "rel_eps": cfg.tolerance.rel_eps},
            "domain": cfg.domain.value,
            "laws": list(report.laws),
        },
        "results": [
            {
                "law": r.law,
                "dim": r.dim,
                "samples": r.samples,
                "passes": r.passes,
                "max_dev": r.max_dev,
                "resamples": r.resamples,
                "counterexample": r.counterexample,
            }
            for r in report.results
        ],
        "version": report.version,
        "generated_at": report.generated_at,
    }


def report_to_json(report: AuditReport) -> str:
    return json.dumps(report_to_dict(report), indent=2)


def report_to_markdown(report: AuditReport) -> str:
    cfg = report.config
    lines = [
        "# Law audit",
        "",
        f"- samples per (law, dim): {cfg.samples}",
        f"- seed: {cfg.seed}",
        f"- domain: {cfg.domain.value}",
        f"- tolerance: abs {cfg.tolerance.abs_eps:g}, rel {cfg.tolerance.rel_eps:g}",
        f"- version: {report.version}",
        "",
        "| law | dim | kind | passes | rate | max dev | counterexample |",
        "|---|---|---|---|---|---|---|",
    ]
    for r in report.results:
        kind = "normative" if r.law in NORMATIVE_LAWS else "hypothesis"
        cex = "none" if r.counterexample is None else f"sample {r.counterexample['sample_index']}"
        lines.append(
            f"| {r.law} | {r.dim} | {kind} | {r.passes}/{r.samples} "
            f"| {r.pass_rate:.4f} | {r.max_dev:.3e} | {cex} |"
        )
    lines.append("")
    return "\n".join(lines)
