"""The audit's column kernels: the charts and the closeness measure of
:mod:`hyperspace.core` over blocks of numbers, one number per row (cw is ccw
on ``core._mirror``'s axes, as in ``core``), and the column evaluator of the
audit's laws, which holds its cell's chart: a block holds numbers only.

Every result is the scalar engine's to the bit.  ``+ - * /``, ``abs``,
``max`` and ``sqrt`` run in numpy in the scalar engine's operation order,
which IEEE rounding makes exact; every other transcendental is the scalar
engine's own ``math`` function mapped over a column, since numpy's may round
otherwise.  Each kernel makes a fixed number of numpy calls per block,
whatever the dimension, but the literal coefficient formulas: ``ColumnPair``
runs their bodies (:mod:`hyperspace.coeff_formulas`) on every block, an axis
a row of float64 columns, in O(N) numpy calls a block, a running sum,
difference or product down the axes being one sequential ``accumulate``.  Only
numpy APIs of numpy 1.24 and later are used.

The audit's numpy code is all here: ``audit.audit_law`` imports this module
when a cell runs, so importing the audit loads no numpy.  The audit has one
source of random numbers: ``audit_law`` seeds a block of samples once
(``_seed_words``), computes one words array for it (``_stream_words``:
PCG64 on (high, low) pairs of uint64 words), and every draw reads it by
position (``_read``, which computes a row's words past it from the row's
seed words) as numpy's ``Generator`` would.  ``_draw_block`` draws every
attempt of a block once, redrawing what ``_draw`` finds near singular, then
``_integers`` every integer, and ``_column_block`` judges the block's
samples with the column evaluator, as the library's functions would.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial
from itertools import starmap
from operator import add, mul, sub
from typing import NamedTuple

import numpy as np

from .core import TWO_PI, Orientation, Tolerance, _CCW, _CW, _S3, _mirror, canonical_ranges

_hypot = np.frompyfunc(math.hypot, 2, 1)


def mapped(f, *cols: np.ndarray) -> np.ndarray:
    """``f`` over the elements of equal-shape arrays, as a float array of that shape."""
    out = np.fromiter(map(f, *(c.ravel().tolist() for c in cols)), float, cols[0].size)
    return out.reshape(cols[0].shape)


def _wrap(a: np.ndarray) -> np.ndarray:
    """``core._wrap`` of a column of atan2 angles."""
    a = np.where(a < 0.0, a + TWO_PI, a)
    a[a == TWO_PI] = 0.0
    return a


def chain(c: np.ndarray, r: np.ndarray, o: Orientation) -> np.ndarray:
    """``core._chain`` of every row of ``c``, with moduli ``r``."""
    if o is _CW:
        return chain(c[:, _mirror(list(range(c.shape[1])))], r, _CCW)[:, ::-1]
    if o is _S3:
        a, b, z = c.T
        r_yz = mapped(math.hypot, b, z)
        phi = np.where(r_yz != 0.0, _wrap(mapped(math.atan2, z, b)), 0.0)
        th = np.stack([mapped(math.atan2, r_yz, a), phi], axis=1)
    else:
        # the running sub-moduli m_0 = c_0, m_k = hypot(m_{k-1}, c_k), and
        # theta_k = atan2(c_k, m_{k-1}): theta_1 is atan2(c_1, c_0), wrapped
        sub = _hypot.accumulate(c[:, :-1].astype(object), axis=1).astype(float)
        th = mapped(math.atan2, c[:, 1:], sub)
        th[:, 0] = _wrap(th[:, 0])
    th[r == 0.0] = 0.0
    return th


def point(r: np.ndarray, th: np.ndarray, o: Orientation) -> np.ndarray:
    """``core._point`` of every row: chains ``th``, moduli ``r``."""
    if o is _CW:
        return point(r, th[:, ::-1], _CCW)[:, _mirror(list(range(th.shape[1] + 1)))]
    if o is _S3:
        theta, phi = th.T
        st = mapped(math.sin, theta)
        cols = [r * mapped(math.cos, theta), r * st * mapped(math.cos, phi), r * st * mapped(math.sin, phi)]
        return np.stack(cols, axis=1)
    # suffix_k = prod_{j >= k} cos(theta_j), multiplied top axis first, and 1
    cos = np.multiply.accumulate(mapped(math.cos, th)[:, ::-1], axis=1)[:, ::-1]
    suffix = np.hstack([cos, np.ones((len(r), 1))])
    rc = r[:, None]
    return np.hstack([rc * suffix[:, :1], rc * mapped(math.sin, th) * suffix[:, 1:]])


class Rows(NamedTuple):
    """A block of numbers: coefficients (None in a polar block), moduli and
    chains.  Its chart is the evaluator's."""

    c: np.ndarray
    r: np.ndarray
    t: np.ndarray

    def take(self, sel) -> Rows:
        return Rows(self.c[sel], self.r[sel], self.t[sel])


def rows(c: np.ndarray, o: Orientation) -> Rows:
    """``core.to_polar`` of every row in chart ``o`` (``math.hypot`` of all N coefficients)."""
    r = np.fromiter(starmap(math.hypot, c.tolist()), float, len(c))
    return Rows(c, r, chain(c, r, o))


def closeness(lhs: np.ndarray, rhs: np.ndarray, tol: Tolerance) -> tuple[np.ndarray, np.ndarray]:
    """``core.closeness`` over the last axis: (agree, relative gap)."""
    gap = np.abs(lhs - rhs).max(axis=-1)
    scale = np.maximum(np.abs(lhs).max(axis=-1), np.abs(rhs).max(axis=-1))
    return gap <= np.maximum(tol.abs_eps, tol.rel_eps * scale), gap / np.maximum(1e-30, scale)


def judge(claims, tol: Tolerance, distinct: type) -> tuple[np.ndarray, np.ndarray]:
    """``audit._judge`` of every row of ``(lhs, rhs, tags)`` claims over
    blocks: (deviation, failed).  A row's deviation is its largest gap up to
    and including its first failing claim; a claim whose tags are of type
    ``distinct`` adds no gap, and it fails where its sides agree."""
    ok, gap = closeness(*(np.stack([coords(c[k]) for c in claims]) for k in (0, 1)), tol)
    distinct = np.array([isinstance(c[2], distinct) for c in claims])[:, None]
    failing = ok == distinct
    failed = failing.any(axis=0)
    upto = np.arange(len(claims))[:, None] <= np.where(failed, failing.argmax(axis=0), len(claims))
    return np.where(upto & ~distinct, gap, 0.0).max(axis=0), failed


class Columns:
    """The column evaluator of the audit's laws in one chart: each
    operation a law names, as the library function of that name computes it,
    over a block.  A block of numbers is a coordinate array, or a ``Rows`` as
    drawn; a polar block is a ``Rows`` that holds no coordinates.  Coordinates
    become a ``Rows`` only where the library calls ``to_polar``.  An integer
    is a column, or one int that every row shares."""

    def __init__(self, o: Orientation) -> None:
        self.o = o

    def to_polar(self, x) -> Rows:
        return x if isinstance(x, Rows) else rows(x, self.o)

    def from_polar(self, p: Rows) -> np.ndarray:
        return point(p.r, p.t, self.o)

    def mul_polar(self, p: Rows, q: Rows) -> Rows:
        return Rows(None, p.r * q.r, p.t + q.t)

    def pow_int_polar(self, p: Rows, n) -> Rows:
        n = np.full(p.r.shape, n)
        return Rows(None, mapped(math.pow, p.r, n), n[:, None] * p.t)

    def nth_roots_polar(self, p: Rows, n: int) -> list[Rows]:
        r = mapped(lambda x: math.pow(x, 1.0 / n), p.r)
        return [Rows(None, r, (p.t + 2.0 * math.pi * m) / n) for m in range(n)]

    def conj3_polar(self, p: Rows) -> Rows:
        return Rows(None, p.r, p.t * (-1.0, 1.0))

    def add(self, a, b) -> np.ndarray:
        return coords(a) + coords(b)

    def mul(self, a, b) -> np.ndarray:
        return self.from_polar(self.mul_polar(self.to_polar(a), self.to_polar(b)))

    def div(self, a, b) -> np.ndarray:
        p, q = self.to_polar(a), self.to_polar(b)
        return self.from_polar(Rows(None, p.r / q.r, p.t - q.t))

    def pow_int(self, s, n) -> np.ndarray:
        return self.from_polar(self.pow_int_polar(self.to_polar(s), n))

    def nth_roots(self, s, n: int) -> list[np.ndarray]:
        return [self.from_polar(p) for p in self.nth_roots_polar(self.to_polar(s), n)]

    def conjugate(self, s) -> np.ndarray:
        c = coords(s)
        return c * ((1.0,) + (-1.0,) * (c.shape[1] - 1))

    def modulus(self, s) -> np.ndarray:
        return self.to_polar(s).r

    def real(self, x: np.ndarray, like: Rows) -> np.ndarray:
        """The numbers (x, 0, ..., 0) of ``like``'s dimension; x >= 0, so the zeros are +0.0."""
        return x[:, None] * ((1.0,) + (0.0,) * like.t.shape[1])

    def unit(self, p: Rows) -> Rows:
        return Rows(None, np.ones(len(p.r)), np.zeros(p.t.shape))

    def formula(self, body, a: Rows, b: Rows) -> np.ndarray:
        """A literal formula's ``assembled`` coordinates on a block, in the evaluator's chart."""
        bd = body(ColumnPair(a, b, self.o), a.c.T, b.c.T)
        return np.stack(bd.coordinates(partial(mapped, math.cos), np.where), axis=1)

    def to_complex(self, s: Rows) -> list[complex]:
        return [complex(*c) for c in s.c.tolist()]

    def each(self, f, *cols) -> list:
        """``f`` row by row, over lists and integer columns."""
        return list(map(f, *(c.tolist() if isinstance(c, np.ndarray) else c for c in cols)))

    def classic(self, zs: list[complex]) -> np.ndarray:
        z = np.array(zs, complex)
        return np.stack([z.real, z.imag], axis=1)

    def fmt(self, text: str, *args) -> None:
        """A row-dependent tag is formatted for a replayed sample only."""


class ColumnPair:
    """The column evaluator of the literal coefficient formulas: ``core._ScalarPair``
    of every row of two blocks, their chains the blocks' ``Rows.t``.  A sequence
    over the axes is one array, an axis a row, so a body's slices, ``each`` and
    ``running`` are a few numpy calls whatever the dimension."""

    sqrt, hypot = np.sqrt, partial(mapped, math.hypot)  # np.sqrt rounds correctly, as math.sqrt does
    _ACCUMULATE = {add: np.add.accumulate, sub: np.subtract.accumulate, mul: np.multiply.accumulate}

    def __init__(self, a: Rows, b: Rows, o: Orientation) -> None:
        self.a, self.b, self.o = a, b, o

    def _axes(self, seq) -> np.ndarray:
        """A sequence of columns (an array of them, or a list) as one array, an axis a row."""
        return seq if isinstance(seq, np.ndarray) else np.reshape(seq, (-1, len(self.a.r)))

    def chains(self) -> tuple[np.ndarray, np.ndarray]:
        return self.a.t.T, self.b.t.T

    def inverse_square(self) -> np.ndarray:
        if (self.b.r == 0.0).any():
            raise ZeroDivisionError("division by a zero-modulus number")
        return 1.0 / (self.b.r * self.b.r)

    def trig(self, ts) -> tuple[np.ndarray, np.ndarray]:
        t = self._axes(ts)
        return mapped(math.cos, t), mapped(math.sin, t)

    def each(self, f, *seqs) -> np.ndarray:
        return f(*map(self._axes, seqs))

    def running(self, op, start, seq) -> np.ndarray:
        """``_ScalarPair.running`` down the axes: numpy's accumulate is sequential."""
        seq = self._axes(seq)
        out = np.empty((len(seq) + 1, seq.shape[1]))
        out[0], out[1:] = start, seq
        return self._ACCUMULATE[op](out, axis=0, out=out)

    def ones(self, k: int) -> np.ndarray:
        return np.ones((k, len(self.a.r)))


def coords(x) -> np.ndarray:
    """The coordinates of a block of numbers."""
    return x.c if isinstance(x, Rows) else x


# ---------------------------------------------------------------------------
# the audit's streams, draws and block judge

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx) and
# the 128-bit PCG multiplier (O'Neill, "PCG: A Family of Simple Fast
# Space-Efficient Statistically Good Algorithms for Random Number
# Generation", HMC-CS-2014-0905)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK64, _MASK128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
_POOL = 4
_SINGULAR_MODULUS = 1e-8
_ANGLE_MARGIN = 1e-8
_MAX_REDRAWS = 128


def _seed_words(seed: int, code: int, dim: int, i0: int, m: int):
    """PCG64 seed words of samples i0 ... i0+m-1 of one cell, an (m, 4) uint64
    array: row i is ``SeedSequence((seed, code, dim, i0 + i)).generate_state(4,
    uint64)``, computed as uint32 array arithmetic over all m indices at once."""
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
    lo, hi, _ = np.array(canonical_ranges(chart, dim)).T
    return lo, hi


def _draw(u, chart: Orientation, unrestricted: bool):
    """One attempt at an operand per row of u, as ``Rows`` in ``chart``, and
    the rows that are near singular: a modulus under ``_SINGULAR_MODULUS``,
    or a canonical angle within ``_ANGLE_MARGIN`` of its range's ends.  A row
    of u is an attempt's doubles: the magnitude, then the coefficients
    (unrestricted) or the angles (positive)."""
    mag = mapped(partial(pow, 10.0), _uniform(-2.0, 2.0, u[:, 0]))
    v = u[:, 1:]
    if unrestricted:
        c = _uniform(-1.0, 1.0, v) * mag[:, None]
    else:
        th = _uniform(-math.pi / 4, math.pi / 4, v)
        if chart is _S3:  # theta in [0, pi/4), phi wrapped to [0, 2*pi)
            th[:, 0] = _uniform(0.0, math.pi / 4, v[:, 0])
            th[:, 1] = mapped(lambda a: a % TWO_PI, th[:, 1])
        c = point(mag, th, chart)
    s = rows(c, chart)
    lo, hi = _bounds(chart, c.shape[1])
    edge = (s.t - lo < _ANGLE_MARGIN) | (hi - s.t < _ANGLE_MARGIN)
    return s, (s.r < _SINGULAR_MODULUS) | edge.any(axis=1)


def _draw_block(spec, unrestricted: bool, seeds, raw, n: int):
    """A block's operands, one ``Rows`` each, and each row's redraws.  A
    sample's operands are the first attempts of its stream, w = n / operands
    words each, that ``_draw`` does not find near singular; at most
    ``_MAX_REDRAWS`` attempts in a row may be.  Round r draws, in one
    ``_draw``, attempt r of every sample still short: words r*w ... (r+1)*w-1."""
    m, w = len(raw), n // spec.operands
    got, run, redraws = np.zeros((3, m), int)  # by row: operands, near attempts in a row, redraws
    todo, r = np.arange(m), 0
    while len(todo):
        s, near = _draw(_doubles(_read(seeds, raw, todo, r * w, w)), spec.chart, unrestricted)
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
    return [Rows(*part) for part in zip(*parts)], redraws


def _column_block(spec, unrestricted: bool, tol: Tolerance, distinct: type, n: int, seeds, raw):
    """Judge a block of one cell's samples as columns in the law's chart, on
    the operands ``_draw_block`` draws and the integers each sample draws
    after its last attempt, within ``tol``, ``distinct`` tagging claims as in
    ``judge``.  Returns (deviation, failed, redraws, (operands, integers))."""
    m, ev = len(raw), Columns(spec.chart)
    operands, redraws = _draw_block(spec, unrestricted, seeds, raw, n)
    ints = np.zeros((1, m), int)  # a row per integer; the last groups samples
    if spec.ints:  # past each sample's last attempt, of n / operands words
        ints = _integers(spec.ints, seeds, raw, n // spec.operands * (spec.operands + redraws))
    dev, failed = np.zeros(m), np.zeros(m, bool)
    for group in sorted(set(ints[-1].tolist())):
        sel = np.flatnonzero(ints[-1] == group)
        block_ints = (*ints[:-1, sel], group)[: len(spec.ints)]
        claims = spec.claims(ev, block_ints, *(s.take(sel) for s in operands))
        dev[sel], failed[sel] = judge(claims, tol, distinct)
    return dev, failed, int(redraws.sum()), (operands, ints)
