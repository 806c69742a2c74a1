"""Value types for N-dimensional space complex numbers, and their charts.

A number lives in an N-dimensional right-angular coordinate system with one
real axis and N-1 imaginary axes.  It can be written as a coefficient vector
(a_0, ..., a_{N-1}) or in polar form as a modulus together with a chain of
N-1 angles.  A *chart* maps nonzero coefficients to an angle chain and back
and fixes the canonical range of every angle; these are hyperspherical
coordinates (Blumenson, "A Derivation of n-Dimensional Spherical
Coordinates", Amer. Math. Monthly 67, 1960).  :class:`Orientation` names
the three charts:

* ccw (anticlockwise) -- the chain climbs from the real axis upward:
  theta_1 is the angle of (a_0, a_1) and carries the full range [0, 2*pi);
  every later theta_k is the angle of a_k against the nonnegative running
  sub-modulus of the axes below it and lives in [-pi/2, pi/2].
* cw (clockwise) -- the ccw chart on the mirrored axes (a_0, a_{N-1}, ...,
  a_1), with the chain reversed, so theta_{N-1} carries the full range.
* s3 -- the 3D master/slave chart, valid at N = 3 only: the master angle
  theta in [0, pi] off the real axis and the slave angle phi in [0, 2*pi),
  the azimuth of (a_1, a_2).  Its values are :class:`Space3` and
  :class:`Space3Polar`, which keep this chart whatever orientation an
  operation requests.

``to_polar`` always returns angles in the canonical ranges.  ``PolarHC``
itself is deliberately lenient: angle chains produced by arithmetic (sums,
scalings) may leave the canonical ranges and are still meaningful inputs to
``from_polar``, which is 2*pi-periodic in every angle.
"""

from __future__ import annotations

import math
from enum import Enum
from itertools import accumulate

TWO_PI = 2.0 * math.pi
HALF_PI = 0.5 * math.pi


class DimensionMismatchError(ValueError):
    """Raised when two numbers of different dimension are combined."""


class Orientation(Enum):
    """Chart of the angle chain (see the module docstring)."""

    ANTICLOCKWISE = "ccw"
    CLOCKWISE = "cw"
    S3 = "s3"

    @classmethod
    def check(cls, o) -> Orientation:
        """``o``, which must be an ``Orientation``: the one check of a chart's type."""
        if not isinstance(o, cls):
            raise TypeError(f"bad orientation: {o!r}")
        return o


_CCW, _CW, _S3 = Orientation


class _Frozen:
    """Base of every immutable record: the value types, the syntax-tree nodes,
    the audit's and the formulas' records and ``rotation.RotationChain``.
    Slotted, equal only to a record of its own class with equal fields,
    hashable, picklable.  Assigning or deleting any name raises
    ``dataclasses.FrozenInstanceError``.

    ``__init__`` is the one place a record's fields are filled, through the
    slots' own setters; a validating constructor checks its arguments and
    passes the checked values on to it.  No record is a dataclass, so
    ``dataclasses.replace``, ``asdict`` and ``fields`` do not apply: a changed
    record is built anew by its constructor, by position or keyword."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()  # every slot, in constructor order
    _defaults: dict = {}  # the fields a caller may omit, and their values
    _compared = None  # the leading fields equality and hashing read (None: all)
    _fills: tuple = ()  # each field's slot setter, in _fields order

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fills = tuple(getattr(cls, name).__set__ for name in cls._fields)

    def __init__(self, *args, **kwargs) -> None:
        """Fill ``_fields`` by position or keyword, the omitted ones from ``_defaults``."""
        if kwargs or len(args) != len(self._fields):  # else every field is given, in order
            given = dict(zip(self._fields, args))
            values = {**self._defaults, **given, **kwargs}
            if len(args) > len(given) or given.keys() & kwargs or values.keys() != set(self._fields):
                raise TypeError(f"{type(self).__name__}() takes {self._fields}, got {args!r} and {kwargs!r}")
            args = [values[name] for name in self._fields]
        i = 0
        for fill in self._fills:  # indexing args costs less than zip's pairs
            fill(self, args[i])
            i += 1

    def __getstate__(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __setstate__(self, state: tuple) -> None:
        _Frozen.__init__(self, *state)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__getstate__()[: self._compared] == other.__getstate__()[: self._compared]

    def __hash__(self) -> int:
        return hash(self.__getstate__()[: self._compared])

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name: str, value) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")


class Tolerance(_Frozen):
    """Absolute/relative comparison budget for floating-point equality."""

    __slots__ = _fields = ("abs_eps", "rel_eps")

    def __init__(self, abs_eps: float = 1e-12, rel_eps: float = 1e-9) -> None:
        if not (0 < abs_eps < math.inf and 0 < rel_eps < math.inf):
            raise ValueError("tolerance components must be finite and strictly positive")
        _Frozen.__init__(self, abs_eps, rel_eps)


DEFAULT_TOLERANCE = Tolerance()


class CartesianHC(_Frozen):
    """Coordinate form: finite real coefficients (a_0, ..., a_{N-1}), N >= 2.

    ``orientation`` is the chart the value is bound to.  Plain coordinates
    are bound to none and convert under whichever chart is asked for.
    """

    __slots__ = _fields = ("coeffs",)
    orientation = None

    def __init__(self, coeffs: tuple[float, ...]) -> None:
        coeffs = tuple(map(float, coeffs))
        if len(coeffs) < 2:
            raise ValueError(f"need at least 2 coefficients, got {len(coeffs)}")
        if not all(map(math.isfinite, coeffs)):
            raise ValueError(f"coefficients must be finite, got {coeffs}")
        _Frozen.__init__(self, coeffs)

    @property
    def dim(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, k: int) -> float:
        return self.coeffs[k]

    def __repr__(self) -> str:
        body = ",".join(format(c, ".17g") for c in self.coeffs)
        return f"c[{body}]"


class PolarHC(_Frozen):
    """Polar form: modulus >= 0 plus the angle chain (theta_1 ... theta_{N-1}).

    Canonical instances (as produced by :func:`to_polar`) keep every angle in
    its chart's range (:func:`canonical_ranges`) and force all angles to
    zero when the modulus is zero.  Non-canonical chains are legal values;
    :func:`canonicalize` maps them to the canonical representative of the
    same point.
    """

    __slots__ = _fields = ("modulus", "angles", "orientation")

    def __init__(self, modulus: float, angles: tuple[float, ...],
                 orientation: Orientation = Orientation.ANTICLOCKWISE) -> None:
        modulus = float(modulus)
        angles = tuple(map(float, angles))
        if not (math.isfinite(modulus) and modulus >= 0.0):
            raise ValueError(f"modulus must be finite and >= 0, got {modulus}")
        if len(angles) < 1:
            raise ValueError("need at least one angle (dim >= 2)")
        if not all(map(math.isfinite, angles)):
            raise ValueError(f"angles must be finite, got {angles}")
        Orientation.check(orientation)
        if orientation is _S3 and len(angles) != 2:
            raise _not_3d(len(angles) + 1)
        if orientation is _S3 and not isinstance(self, Space3Polar):
            raise TypeError("an s3 polar value is built as Space3Polar(modulus, theta, phi)")
        _Frozen.__init__(self, modulus, angles, orientation)

    @property
    def dim(self) -> int:
        return len(self.angles) + 1

    def is_canonical(self) -> bool:
        if self.modulus == 0.0:
            return all(a == 0.0 for a in self.angles)
        ranges = canonical_ranges(self.orientation, self.dim)
        return all(
            lo <= a and (a < hi if open_top else a <= hi)
            for a, (lo, hi, open_top) in zip(self.angles, ranges)
        )

    def __repr__(self) -> str:
        body = ",".join(format(a, ".17g") for a in self.angles)
        tag = self.orientation.value
        return f"p[{format(self.modulus, '.17g')}; {body}; {tag}]"


class Space3(CartesianHC):
    """3D coordinate form (a, b, c) on axes x, y, z: the s3 chart's points."""

    __slots__ = ()
    orientation = Orientation.S3

    def __init__(self, a: float, b: float, c: float) -> None:
        CartesianHC.__init__(self, (a, b, c))

    a = property(lambda self: self.coeffs[0])
    b = property(lambda self: self.coeffs[1])
    c = property(lambda self: self.coeffs[2])

    def __repr__(self) -> str:
        return f"s3[{self.a:.17g},{self.b:.17g},{self.c:.17g}]"


class Space3Polar(PolarHC):
    """3D exponent form: modulus, master angle theta, slave angle phi.

    Canonical instances keep theta in [0, pi] and phi in [0, 2*pi), with
    phi = 0 exactly when hypot(b, c) == 0 (theta can round to 0 or pi with
    phi != 0) and theta = phi = 0 for the zero number.
    """

    __slots__ = ()

    def __init__(self, modulus: float, theta: float, phi: float) -> None:
        PolarHC.__init__(self, modulus, (theta, phi), _S3)

    theta = property(lambda self: self.angles[0])
    phi = property(lambda self: self.angles[1])

    def __repr__(self) -> str:
        return f"s3p[{self.modulus:.17g}; {self.theta:.17g}, {self.phi:.17g}]"


def make_cartesian(orientation: Orientation | None, coeffs) -> CartesianHC:
    """Checked coordinate value of a chart's family (``Space3`` for s3)."""
    return Space3(*coeffs) if orientation is _S3 else CartesianHC(coeffs)


def make_polar(orientation: Orientation, modulus: float, angles) -> PolarHC:
    """Checked polar value of a chart, ``Space3Polar`` for s3 (other lengths: PolarHC raises)."""
    if orientation is _S3 and len(angles) == 2:
        return Space3Polar(modulus, *angles)
    return PolarHC(modulus, angles, orientation)


# The engine's results are built from checked values, s3 chains of two
# angles included, so their builders check only what arithmetic can break:
# finiteness, which turns overflow into an error.  They fill the slots directly.
(_set_coeffs,) = CartesianHC._fills
_set_modulus, _set_angles, _set_orientation = PolarHC._fills


def _cartesian(orientation: Orientation | None, coeffs: tuple[float, ...]) -> CartesianHC:
    if not all(map(math.isfinite, coeffs)):
        raise ValueError(f"coefficients must be finite, got {coeffs}")
    s = object.__new__(Space3 if orientation is _S3 else CartesianHC)
    _set_coeffs(s, coeffs)
    return s


def _polar(orientation: Orientation, modulus: float, angles: tuple[float, ...]) -> PolarHC:
    if not math.isfinite(modulus):
        raise ValueError(f"modulus must be finite and >= 0, got {modulus}")
    if not all(map(math.isfinite, angles)):
        raise ValueError(f"angles must be finite, got {angles}")
    p = object.__new__(Space3Polar if orientation is _S3 else PolarHC)
    _set_modulus(p, modulus)
    _set_angles(p, angles)
    _set_orientation(p, orientation)
    return p


def resolve_orientation(
    requested: Orientation | None, x: CartesianHC | PolarHC, y=None
) -> Orientation:
    """The chart an operation on ``x`` (and ``y``) works in.

    Two operands must have one dimension.  Polar values and 3D values are
    bound to a chart.  A requested orientation must agree with a bound ccw/cw
    chart; it applies to the N-dimensional family only, so 3D values keep the
    s3 chart.  Values bound to no chart take the requested one, ccw by
    default (None), and plain coordinates take s3 only at N = 3.  A request
    that is not an ``Orientation`` raises ``TypeError``.
    """
    if requested is not None:
        Orientation.check(requested)
    o = x.orientation
    if y is not None and x.dim != y.dim:
        raise DimensionMismatchError(f"dimension mismatch: {x.dim} != {y.dim}")
    if y is not None and y.orientation is not o:
        if o is not None and y.orientation is not None:
            raise _conflict(o, y.orientation)
        o = o or y.orientation
    if o is None:
        if requested is _S3 and x.dim != 3:
            raise _not_3d(x.dim)
        return requested or _CCW
    if requested is not None and requested is not o and o is not _S3:
        raise _conflict(o, requested)
    return o


def _conflict(*orientations: Orientation) -> ValueError:
    names = sorted(o.value for o in orientations)
    return ValueError(f"conflicting orientations: {names}")


def _not_3d(dim: int) -> ValueError:
    return ValueError(f"the s3 chart is 3-dimensional, got dimension {dim}")


_FULL_TURN = (0.0, TWO_PI, True)
_HALF_TURN = (-HALF_PI, HALF_PI, False)


def canonical_ranges(
    orientation: Orientation, dim: int
) -> tuple[tuple[float, float, bool], ...]:
    """(low, high, high excluded) of every angle of a canonical chain."""
    Orientation.check(orientation)
    if orientation is _S3:
        if dim != 3:
            raise _not_3d(dim)
        return ((0.0, math.pi, False), _FULL_TURN)
    ranges = (_FULL_TURN,) + (_HALF_TURN,) * (dim - 2)
    return ranges if orientation is _CCW else ranges[::-1]


def _wrap(a: float) -> float:
    """An atan2 angle moved to [0, 2*pi).  A negative angle closer to zero
    than half an ulp of 2*pi rounds to 2*pi when shifted; 0 is its nearest
    value in range."""
    if a < 0.0:
        a += TWO_PI
        if a == TWO_PI:
            return 0.0
    return a


def _mirror(c):
    """(c_0, c_{N-1}, ..., c_1): the cw chart's axes in ccw order, and back."""
    return c[:1] + c[:0:-1]


def _chain(c: tuple[float, ...], r: float, o: Orientation) -> tuple[float, ...]:
    """Canonical angle chain of coefficients ``c`` with modulus ``r`` in the resolved chart ``o``."""
    if r == 0.0:
        return (0.0,) * (len(c) - 1)
    if o is _CW:
        return _chain(_mirror(c), r, _CCW)[::-1]
    if o is _S3:
        a, b, z = c
        r_yz = math.hypot(b, z)
        # on the real axis the azimuth is undefined; it collapses to 0
        return (math.atan2(r_yz, a), _wrap(math.atan2(z, b)) if r_yz else 0.0)
    chain = [_wrap(math.atan2(c[1], c[0]))]
    m = math.hypot(c[0], c[1])
    for k in range(2, len(c)):
        chain.append(math.atan2(c[k], m))
        m = math.hypot(m, c[k])
    return tuple(chain)


def _point(r: float, th: tuple[float, ...], o: Orientation) -> tuple[float, ...]:
    """Coefficients of the chain ``th`` with modulus ``r``."""
    if o is _CW:
        return _mirror(_point(r, th[::-1], _CCW))
    if o is _S3:
        theta, phi = th
        st = math.sin(theta)
        return (r * math.cos(theta), r * st * math.cos(phi), r * st * math.sin(phi))
    # a_k = r * sin(theta_k) * prod_{j > k} cos(theta_j), top axis first
    out = [0.0] * (len(th) + 1)
    suffix = 1.0
    for k in range(len(th), 0, -1):
        out[k] = r * math.sin(th[k - 1]) * suffix
        suffix *= math.cos(th[k - 1])
    out[0] = r * suffix
    return tuple(out)


def modulus(s: CartesianHC) -> float:
    """Euclidean norm of the coefficient vector; zero iff all coefficients are."""
    return math.hypot(*s.coeffs)


def arguments(
    s: CartesianHC, orientation: Orientation = Orientation.ANTICLOCKWISE
) -> tuple[float, ...]:
    """Canonical component arguments of ``s`` under the given chart.

    Anticlockwise: theta_1 is the quadrant-resolved angle of (a_0, a_1)
    shifted to [0, 2*pi); for k >= 2, theta_k = atan2(a_k, m_{k-1}) against
    the running sub-modulus m_{k-1} = sqrt(a_0^2 + ... + a_{k-1}^2) >= 0, so
    it lands in [-pi/2, pi/2].  Clockwise is anticlockwise on the mirrored
    axes; 3D values keep the s3 chart.  A zero sub-modulus degenerates to
    +-pi/2 by the sign of a_k (0 when a_k = 0), and a zero number yields the
    all-zero chain.  The orientation must be an :class:`Orientation`, as
    :func:`resolve_orientation` rules.
    """
    return _chain(s.coeffs, modulus(s), resolve_orientation(orientation, s))


def to_polar(
    s: CartesianHC, orientation: Orientation = Orientation.ANTICLOCKWISE
) -> PolarHC:
    """Canonical polar form of ``s``: (modulus, component arguments).  The
    orientation must be an :class:`Orientation`; 3D values keep the s3 chart."""
    return _to_polar(s, resolve_orientation(orientation, s))


def _to_polar(s: CartesianHC, o: Orientation) -> PolarHC:
    """``to_polar`` in the resolved chart ``o``."""
    r = math.hypot(*s.coeffs)
    return _polar(o, r, _chain(s.coeffs, r, o))


def from_polar(p: PolarHC) -> CartesianHC:
    """Coordinate form of a polar value.

    Anticlockwise: a_0 = r * prod(cos theta_k), a_k = r * sin(theta_k) *
    prod_{j>k} cos(theta_j); clockwise mirrors it; s3: a = r*cos(theta),
    b = r*sin(theta)*cos(phi), c = r*sin(theta)*sin(phi).  Defined for
    arbitrary finite angle chains (2*pi-periodic in each angle), not just
    canonical ones.
    """
    o = p.orientation
    return _cartesian(o, _point(p.modulus, p.angles, o))


def canonicalize(p: PolarHC) -> PolarHC:
    """Canonical representative of the point ``p`` denotes."""
    return _to_polar(from_polar(p), p.orientation)


def conjugate(s: CartesianHC) -> CartesianHC:
    """Flip the sign of every imaginary coefficient.

    Equivalently: same modulus, every chain angle negated (then
    canonicalized).
    """
    c = s.coeffs
    return _cartesian(s.orientation, (c[0],) + tuple(-x for x in c[1:]))


def closeness(
    s1: CartesianHC, s2: CartesianHC, tol: Tolerance = DEFAULT_TOLERANCE
) -> tuple[bool, float]:
    """(agree, relative gap) of two numbers of one dimension: the largest
    coefficientwise difference, judged as :func:`approx_eq` describes, and
    that gap divided by the scale (floored at 1e-30)."""
    resolve_orientation(None, s1, s2)  # the operand-pair rule
    gap = max(abs(x - y) for x, y in zip(s1.coeffs, s2.coeffs))
    scale = max(map(abs, s1.coeffs + s2.coeffs))
    return gap <= max(tol.abs_eps, tol.rel_eps * scale), gap / max(1e-30, scale)


def approx_eq(
    s1: CartesianHC, s2: CartesianHC, tol: Tolerance = DEFAULT_TOLERANCE
) -> bool:
    """Coefficientwise comparison within max(abs_eps, rel_eps * max magnitude).

    The scale is the largest coefficient magnitude across both operands, so
    components that should vanish are judged against the size of the number,
    not against themselves.
    """
    return closeness(s1, s2, tol)[0]


class _ScalarPair:
    """The scalar evaluator of the literal coefficient formulas' bodies
    (``coeff_formulas``, ``space3``): two numbers' coefficients, an axis a
    float, their moduli and component arguments in the resolved chart ``o``,
    each computed once, ``math``, and Python's loops over the axes."""

    sqrt, hypot = math.sqrt, math.hypot

    def __init__(self, c1: tuple[float, ...], c2: tuple[float, ...], o: Orientation) -> None:
        self.o, self.r2 = o, math.hypot(*c2)  # the moduli, as ``modulus`` computes them
        self.t = (_chain(c1, math.hypot(*c1), o), _chain(c2, self.r2, o))

    def chains(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        return self.t

    def inverse_square(self) -> float:
        """1 / |s2|^2; a zero-modulus divisor raises."""
        if self.r2 == 0.0:
            raise ZeroDivisionError("division by a zero-modulus number")
        return 1.0 / (self.r2 * self.r2)

    def trig(self, ts) -> tuple[list[float], list[float]]:
        return [math.cos(t) for t in ts], [math.sin(t) for t in ts]

    def each(self, f, *seqs) -> list:
        return list(map(f, *seqs))

    def running(self, op, start, seq) -> list:
        """[start, start op s_0, (start op s_0) op s_1, ...], left to right."""
        return list(accumulate(seq, op, initial=start))

    def ones(self, k: int) -> list[float]:
        return [1.0] * k


def _literal(body, s1: CartesianHC, s2: CartesianHC, orientation: Orientation | None):
    """A literal formula's body on two numbers by the scalar evaluator, in the
    one chart it decides: ``resolve_orientation``'s (None: the operands' own),
    which must be the one requested, so ccw on ``Space3`` values raises."""
    o = resolve_orientation(orientation, s1, s2)
    if orientation not in (None, o):
        raise _conflict(o, orientation)
    return body(_ScalarPair(s1.coeffs, s2.coeffs, o), s1.coeffs, s2.coeffs)


def to_dict(number: CartesianHC | PolarHC) -> dict:
    """JSON-ready encoding; round-trips bit-exactly for finite doubles.

    The s3 chart's values keep their own kinds, with named components.
    """
    if isinstance(number, CartesianHC):
        if number.orientation is _S3:
            return {"kind": "space3", "a": number.a, "b": number.b, "c": number.c}
        return {"kind": "cartesian", "coeffs": list(number.coeffs)}
    if isinstance(number, PolarHC):
        if number.orientation is _S3:
            theta, phi = number.angles
            return {"kind": "space3polar", "modulus": number.modulus, "theta": theta, "phi": phi}
        return {
            "kind": "polar",
            "modulus": number.modulus,
            "angles": list(number.angles),
            "orientation": number.orientation.value,
        }
    raise TypeError(f"not a hyperspace number: {number!r}")


def from_dict(payload: dict) -> CartesianHC | PolarHC:
    """Inverse of :func:`to_dict`."""
    kind = payload.get("kind")
    if kind == "cartesian":
        return CartesianHC(tuple(payload["coeffs"]))
    if kind == "polar":
        return make_polar(
            Orientation(payload["orientation"]),
            payload["modulus"],
            tuple(payload["angles"]),
        )
    if kind == "space3":
        return Space3(payload["a"], payload["b"], payload["c"])
    if kind == "space3polar":
        return Space3Polar(payload["modulus"], payload["theta"], payload["phi"])
    raise ValueError(f"unknown number kind: {kind!r}")
