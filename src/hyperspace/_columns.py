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
numpy APIs of numpy 1.24 and later are used.  The audit's draws and
``audit.audit_law`` import this module when they run, so importing the audit
loads no numpy.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import starmap
from operator import add, mul, sub
from typing import NamedTuple

import numpy as np

from .core import TWO_PI, Orientation, Tolerance, _CCW, _CW, _S3, _mirror

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
