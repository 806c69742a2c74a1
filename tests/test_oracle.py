"""Conversion, power and root accuracy against an independent 50-digit
mpmath oracle.

The oracle evaluates each chart's defining formulas at 50 digits on the
exact float inputs, so an error here is the library's own rounding:

* ``to_polar``: the modulus in ulps of itself, every angle in ulps of 2*pi;
* ``from_polar`` of the chain ``to_polar`` returned: every coefficient in
  ulps of the modulus.

The bounds are about twice the largest errors seen over 1,500 samples per
chart and dimension (the generator below, coefficients uniform in [-1, 1]
times 10**U(-2, 2)): 0.50 ulp for the modulus, 1.02 ulp(2*pi) for the
angles, and 2.78 ulp of the modulus for ``from_polar`` (cw, N = 6; 2.73 at
ccw, N = 8).

Powers and roots are measured at the polar level, against the exact result
of the float input chain, every value in ulps of its exact result:

* ``pow_int_polar(p, n)``, |n| up to 10**6: the modulus against r**n, each
  angle against n * theta.  A modulus of 2**(U(-1000, 1000) / n) keeps r**n
  a normal float.  Worst seen: 0.504 ulp (modulus), 0.50 ulp (angles).
* ``nth_roots_polar(p, n)``, n up to ``MAX_ROOT_ORDER``: the modulus against
  r**(1/n), each angle against (theta + 2*pi*m) / n.  Worst seen: 1.16 ulp
  (modulus, ccw N = 6), 2.21 ulp (angles, ccw N = 8).  The modulus is
  ``pow(r, 1.0 / n)``, and the rounding of 1.0 / n grows with |log r|: at
  moduli of 10**U(-300, 300) it was up to 106 ulps off, so the bound holds
  for the moduli drawn here only.

Those worst cases are over 1,500 samples per chart and dimension, with
chains of the generator below; the bounds are about twice them.
"""

import math
import random

import pytest

from hyperspace.algebra import nth_roots_polar, pow_int_polar
from hyperspace.core import CartesianHC, Orientation, Space3, from_polar, make_polar, to_polar
from hyperspace.expr import MAX_ROOT_ORDER

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp

CCW, CW, S3 = Orientation.ANTICLOCKWISE, Orientation.CLOCKWISE, Orientation.S3
CELLS = [(CCW, n) for n in range(2, 9)] + [(CW, n) for n in range(2, 9)] + [(S3, 3)]
SAMPLES = 100  # per chart and dimension, about a second in all
MODULUS_ULPS, ANGLE_ULPS, POINT_ULPS = 1.0, 2.0, 5.5
POWER_SAMPLES = 25  # per chart and dimension, for powers and for roots
POWER_ULPS, ROOT_MODULUS_ULPS, ROOT_ANGLE_ULPS = 1.0, 2.5, 4.5


def mirror(c):
    """(c_0, c_{N-1}, ..., c_1): the cw chart's axes in ccw order."""
    return c[:1] + c[:0:-1]


def mp_chain(c, chart):
    """The canonical angle chain of exact coordinates ``c``."""
    if chart is CW:
        return mp_chain(mirror(c), CCW)[::-1]
    if chart is S3:
        a, b, z = c
        phi = mpmath.atan2(z, b)
        return [mpmath.atan2(mpmath.hypot(b, z), a), phi + 2 * mp.pi if phi < 0 else phi]
    full = mpmath.atan2(c[1], c[0])
    chain, m = [full + 2 * mp.pi if full < 0 else full], mpmath.hypot(c[0], c[1])
    for x in c[2:]:
        chain.append(mpmath.atan2(x, m))
        m = mpmath.hypot(m, x)
    return chain


def mp_point(r, th, chart):
    """The coordinates of the exact chain ``th`` with modulus ``r``."""
    if chart is CW:
        return mirror(mp_point(r, th[::-1], CCW))
    if chart is S3:
        theta, phi = th
        return [r * mpmath.cos(theta), r * mpmath.sin(theta) * mpmath.cos(phi),
                r * mpmath.sin(theta) * mpmath.sin(phi)]
    out, suffix = [None] * (len(th) + 1), mpmath.mpf(1)
    for k in range(len(th), 0, -1):  # a_k = r sin(theta_k) prod_{j > k} cos(theta_j)
        out[k] = r * mpmath.sin(th[k - 1]) * suffix
        suffix *= mpmath.cos(th[k - 1])
    out[0] = r * suffix
    return out


def coefficients(rng, n):
    return tuple(rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-2.0, 2.0) for _ in range(n))


def worst_errors(chart, n, samples, seed=7):
    """The largest modulus, angle and point errors over ``samples`` values, in ulps."""
    rng = random.Random(f"{seed} {chart.value} {n}")
    worst = [0.0, 0.0, 0.0]
    with mp.workdps(50):
        for _ in range(samples):
            c = coefficients(rng, n)
            p = to_polar(Space3(*c) if chart is S3 else CartesianHC(c), chart)
            exact = [mpmath.mpf(x) for x in c]
            r = mpmath.sqrt(mpmath.fsum(x * x for x in exact))
            back = mp_point(mpmath.mpf(p.modulus), [mpmath.mpf(a) for a in p.angles], chart)
            errors = (
                abs(p.modulus - r) / math.ulp(p.modulus),
                max(abs(a - t) for a, t in zip(p.angles, mp_chain(exact, chart))) / math.ulp(2 * math.pi),
                max(abs(x - t) for x, t in zip(from_polar(p).coeffs, back)) / math.ulp(p.modulus),
            )
            worst = [max(w, float(e)) for w, e in zip(worst, errors)]
    return worst


@pytest.mark.parametrize("chart,n", CELLS, ids=[f"{o.value}-{n}" for o, n in CELLS])
def test_conversions_are_within_a_few_ulps_of_the_oracle(chart, n):
    modulus, angles, point = worst_errors(chart, n, SAMPLES)
    assert modulus <= MODULUS_ULPS
    assert angles <= ANGLE_ULPS
    assert point <= POINT_ULPS


def ulps(x, exact):
    """The distance of float x from an exact value, in ulps of that value."""
    return float(abs(x - exact) / math.ulp(float(exact)))


def chain(rng, chart, n):
    c = coefficients(rng, n)
    return to_polar(Space3(*c) if chart is S3 else CartesianHC(c), chart)


def worst_power_errors(chart, n, samples, seed=7):
    """The largest modulus and angle errors of ``pow_int_polar``, in ulps."""
    rng = random.Random(f"{seed} pow {chart.value} {n}")
    worst = [0.0, 0.0]
    with mp.workdps(50):
        for _ in range(samples):
            k = round(10 ** rng.uniform(0, 6)) * rng.choice((-1, 1))
            p = make_polar(chart, 2.0 ** (rng.uniform(-1000, 1000) / k), chain(rng, chart, n).angles)
            q = pow_int_polar(p, k)
            errors = (
                ulps(q.modulus, mpmath.mpf(p.modulus) ** k),
                max(ulps(b, k * mpmath.mpf(a)) for a, b in zip(p.angles, q.angles)),
            )
            worst = [max(w, e) for w, e in zip(worst, errors)]
    return worst


def worst_root_errors(chart, n, samples, seed=7):
    """The largest modulus and angle errors of ``nth_roots_polar``, in ulps;
    half the orders up to 12, half up to ``MAX_ROOT_ORDER``, whose angles are
    checked at the first two roots, the middle one and the last."""
    rng = random.Random(f"{seed} root {chart.value} {n}")
    worst = [0.0, 0.0]
    with mp.workdps(50):
        for _ in range(samples):
            p = chain(rng, chart, n)
            k = rng.randint(1, MAX_ROOT_ORDER if rng.random() < 0.5 else 12)
            roots = nth_roots_polar(p, k)
            errors = (
                ulps(roots[0].modulus, mpmath.mpf(p.modulus) ** (mpmath.mpf(1) / k)),
                max(ulps(b, (mpmath.mpf(a) + 2 * mp.pi * m) / k)
                    for m in sorted({0, min(1, k - 1), k // 2, k - 1})
                    for a, b in zip(p.angles, roots[m].angles)),
            )
            worst = [max(w, e) for w, e in zip(worst, errors)]
    return worst


@pytest.mark.parametrize("chart,n", CELLS, ids=[f"{o.value}-{n}" for o, n in CELLS])
def test_powers_and_roots_are_within_a_few_ulps_of_the_oracle(chart, n):
    modulus, angles = worst_power_errors(chart, n, POWER_SAMPLES)
    assert modulus <= POWER_ULPS
    assert angles <= POWER_ULPS
    modulus, angles = worst_root_errors(chart, n, POWER_SAMPLES)
    assert modulus <= ROOT_MODULUS_ULPS
    assert angles <= ROOT_ANGLE_ULPS
