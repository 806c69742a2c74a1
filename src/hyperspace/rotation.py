"""Geometric construction of polar form by chained in-plane rotations.

A point is built by starting on the real axis and rotating, step by step,
inside the 2-plane spanned by the current position and the next imaginary
axis.  This construction is an independent oracle for ``from_polar``: the
two must agree to floating-point accuracy.  It also makes the absorption
property literal: a rotation whose plane is orthogonal to an axis fixes
vectors along that axis exactly.
"""

from __future__ import annotations

import math

from .core import CartesianHC, _Frozen

Vector = tuple[float, ...]


class RotationChain(_Frozen):
    """Rotation program: radius plus ordered (axis, angle) steps in ``dim``.

    Axes are imaginary-axis indices in 1 ... dim-1, strictly ascending
    (anticlockwise accumulation) or strictly descending (clockwise).
    """

    __slots__ = _fields = ("radius", "steps", "dim")

    def __init__(self, radius: float, steps: tuple[tuple[int, float], ...], dim: int) -> None:
        radius = float(radius)
        steps = tuple((int(a), float(t)) for a, t in steps)
        if not (math.isfinite(radius) and radius >= 0.0):
            raise ValueError(f"radius must be finite and >= 0, got {radius}")
        if dim < 2:
            raise ValueError(f"dim must be >= 2, got {dim}")
        axes = [a for a, _ in steps]
        if any(not 1 <= a <= dim - 1 for a in axes):
            raise ValueError(f"step axes must lie in 1..{dim - 1}, got {axes}")
        ascending = all(a < b for a, b in zip(axes, axes[1:]))
        descending = all(a > b for a, b in zip(axes, axes[1:]))
        if not (ascending or descending):
            raise ValueError(f"step axes must be strictly monotone, got {axes}")
        if any(not math.isfinite(t) for _, t in steps):
            raise ValueError("step angles must be finite")
        _Frozen.__init__(self, radius, steps, dim)


def rotate_in_plane(v: Vector, axis: int, angle: float) -> Vector:
    """Rotate ``v`` by ``angle`` inside the plane spanned by ``v`` and basis
    axis ``axis``.

    Requires v[axis] == 0 (otherwise the plane is ill-defined); a zero
    vector is returned unchanged.  The result is cos(angle)*v +
    sin(angle)*|v|*e_axis, an isometry.
    """
    if not 0 <= axis < len(v):
        raise ValueError(f"axis {axis} out of range for dim {len(v)}")
    if v[axis] != 0.0:
        raise ValueError(
            f"component along axis {axis} must be zero, got {v[axis]!r}"
        )
    r = math.hypot(*v)
    if r == 0.0:
        return tuple(v)
    c, s = math.cos(angle), math.sin(angle)
    out = [c * x for x in v]
    out[axis] = s * r
    return tuple(out)


def apply_plane_rotation(w: Vector, u: Vector, axis: int, angle: float) -> Vector:
    """Rotate an arbitrary vector ``w`` by ``angle`` in the plane spanned by
    ``u`` and basis axis ``axis``.

    ``u`` must be nonzero with u[axis] == 0 so that (u/|u|, e_axis) is an
    orthonormal basis of the plane.  Vectors orthogonal to the plane are
    fixed exactly.  Agrees with :func:`rotate_in_plane` when w == u.
    """
    if len(w) != len(u):
        raise ValueError(f"dimension mismatch: {len(w)} != {len(u)}")
    if not 0 <= axis < len(u):
        raise ValueError(f"axis {axis} out of range for dim {len(u)}")
    if u[axis] != 0.0:
        raise ValueError(
            f"plane vector component along axis {axis} must be zero, got {u[axis]!r}"
        )
    un = math.hypot(*u)
    if un == 0.0:
        raise ValueError("plane vector must be nonzero")
    e1 = tuple(x / un for x in u)
    w1 = sum(a * b for a, b in zip(w, e1))  # component along u-hat
    w2 = w[axis]  # component along e_axis
    c, s = math.cos(angle), math.sin(angle)
    d1 = (c - 1.0) * w1 - s * w2
    d2 = s * w1 + (c - 1.0) * w2
    out = list(w)
    for i, e in enumerate(e1):
        out[i] += d1 * e
    out[axis] += d2
    return tuple(out)


def trajectory(chain: RotationChain) -> list[Vector]:
    """All intermediate points of the chain, starting at (radius, 0, ..., 0)."""
    v: Vector = (chain.radius,) + (0.0,) * (chain.dim - 1)
    points = [v]
    for axis, angle in chain.steps:
        v = rotate_in_plane(v, axis, angle)
        points.append(v)
    return points


def build_by_rotations(chain: RotationChain) -> CartesianHC:
    """Endpoint of the chain as a coordinate-form number.

    With a full ascending chain (axes 1 ... dim-1) this equals
    from_polar(radius, angles, anticlockwise); a full descending chain
    matches the clockwise convention.
    """
    return CartesianHC(trajectory(chain)[-1])
