import math

import numpy as np
import pytest

from hyperspace.core import CartesianHC, Orientation, PolarHC, from_polar, to_polar
from hyperspace.rotation import (
    RotationChain,
    apply_plane_rotation,
    build_by_rotations,
    rotate_in_plane,
    trajectory,
)

from util import vec_close

ACW = Orientation.ANTICLOCKWISE
CW = Orientation.CLOCKWISE


def chain_for(p: PolarHC, dim: int) -> RotationChain:
    if p.orientation is ACW:
        steps = tuple((k + 1, a) for k, a in enumerate(p.angles))
    else:
        steps = tuple((k + 1, a) for k, a in reversed(list(enumerate(p.angles))))
    return RotationChain(p.modulus, steps, dim)


class TestRotateInPlane:
    def test_quarter_turn(self):
        assert vec_close(rotate_in_plane((1, 0, 0), 1, math.pi / 2), (0, 1, 0))

    def test_zero_angle(self):
        assert rotate_in_plane((1.0, 0.0, 0.0), 2, 0.0) == (1.0, 0.0, 0.0)

    def test_full_lift_to_top_axis(self):
        got = rotate_in_plane((1.0, 1.0, 0.0), 2, math.pi / 2)
        assert vec_close(got, (0, 0, math.sqrt(2)))

    def test_nonzero_target_component_rejected(self):
        with pytest.raises(ValueError):
            rotate_in_plane((1.0, 0.5, 0.0), 1, 0.3)

    def test_zero_vector_unchanged(self):
        assert rotate_in_plane((0.0, 0.0, 0.0), 1, 1.0) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("axis", [-1, 3])
    def test_axis_out_of_range_rejected(self, axis):
        with pytest.raises(ValueError, match=f"axis {axis} out of range for dim 3"):
            rotate_in_plane((1.0, 0.0, 0.0), axis, 0.3)

    def test_norm_preserved(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            dim = int(rng.integers(2, 9))
            v = list(rng.uniform(-2, 2, dim))
            axis = int(rng.integers(1, dim))
            v[axis] = 0.0
            got = rotate_in_plane(tuple(v), axis, rng.uniform(-6, 6))
            assert math.isclose(
                math.hypot(*got), math.hypot(*v), rel_tol=1e-15, abs_tol=1e-300
            )


class TestApplyPlaneRotation:
    def test_agrees_with_rotate_in_plane(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            dim = int(rng.integers(2, 9))
            v = list(rng.uniform(-2, 2, dim))
            axis = int(rng.integers(1, dim))
            v[axis] = 0.0
            angle = rng.uniform(-6, 6)
            a = rotate_in_plane(tuple(v), axis, angle)
            b = apply_plane_rotation(tuple(v), tuple(v), axis, angle)
            assert vec_close(a, b, rel=1e-12)

    def test_orthogonal_vector_fixed_exactly(self):
        # absorption: a rotation whose plane lies in the span of earlier
        # axes leaves later basis vectors untouched, bit for bit
        rng = np.random.default_rng(7)
        for _ in range(100):
            dim = int(rng.integers(3, 9))
            j = int(rng.integers(1, dim - 1))
            u = [0.0] * dim
            u[: j + 1] = rng.uniform(-2, 2, j + 1)  # plane point in span(e_0..e_j)
            u[j] = 0.0  # rotation axis must be free in u
            if all(x == 0.0 for x in u):
                u[0] = 1.0
            for k in range(j + 1, dim):
                w = tuple(1.0 if i == k else 0.0 for i in range(dim))
                got = apply_plane_rotation(w, tuple(u), j, rng.uniform(-6, 6))
                assert got == w

    def test_zero_plane_vector_rejected(self):
        with pytest.raises(ValueError):
            apply_plane_rotation((1.0, 0.0), (0.0, 0.0), 1, 0.5)

    def test_argument_checks(self):
        with pytest.raises(ValueError, match="dimension mismatch: 2 != 3"):
            apply_plane_rotation((1.0, 0.0), (1.0, 0.0, 0.0), 1, 0.5)
        for axis in (-1, 3):
            with pytest.raises(ValueError, match=f"axis {axis} out of range for dim 3"):
                apply_plane_rotation((1.0, 0.0, 0.0), (1.0, 0.0, 0.0), axis, 0.5)
        with pytest.raises(ValueError, match="plane vector component along axis 1 must be zero"):
            apply_plane_rotation((1.0, 0.0, 0.0), (1.0, 2.0, 0.0), 1, 0.5)


class TestBuildByRotations:
    def test_single_quarter_turn(self):
        got = build_by_rotations(RotationChain(1.0, ((1, math.pi / 2),), 2))
        assert vec_close(got.coeffs, (0, 1))

    def test_two_quarter_turns(self):
        got = build_by_rotations(
            RotationChain(2.0, ((1, math.pi / 2), (2, math.pi / 2)), 3)
        )
        assert vec_close(got.coeffs, (0, 0, 2))

    def test_ones_direction(self):
        # frozen by evaluating the two-step chain by hand
        got = build_by_rotations(
            RotationChain(
                1.0, ((1, math.pi / 4), (2, math.atan(1 / math.sqrt(2)))), 3
            )
        )
        r3 = 1 / math.sqrt(3)
        assert vec_close(got.coeffs, (r3, r3, r3), rel=1e-12)

    def test_zero_radius_collapses(self):
        got = build_by_rotations(RotationChain(0.0, ((1, 1.0), (2, 2.0)), 3))
        assert got.coeffs == (0, 0, 0)

    def test_monotonicity_enforced(self):
        with pytest.raises(ValueError):
            RotationChain(1.0, ((1, 0.1), (3, 0.2), (2, 0.3)), 4)
        with pytest.raises(ValueError):
            RotationChain(1.0, ((2, 0.1), (2, 0.2)), 4)

    @pytest.mark.parametrize("radius", [-1.0, math.inf, math.nan])
    def test_radius_enforced(self, radius):
        with pytest.raises(ValueError, match="radius must be finite and >= 0"):
            RotationChain(radius, ((1, 0.1),), 2)

    def test_dim_floor(self):
        with pytest.raises(ValueError, match="dim must be >= 2, got 1"):
            RotationChain(1.0, (), 1)

    @pytest.mark.parametrize("angle", [math.inf, math.nan])
    def test_finite_steps(self, angle):
        with pytest.raises(ValueError, match="step angles must be finite"):
            RotationChain(1.0, ((1, 0.1), (2, angle)), 3)

    def test_axis_range_enforced(self):
        with pytest.raises(ValueError):
            RotationChain(1.0, ((0, 0.1),), 3)
        with pytest.raises(ValueError):
            RotationChain(1.0, ((3, 0.1),), 3)


class TestOracleEquivalence:
    @pytest.mark.parametrize("orientation", [ACW, CW])
    @pytest.mark.parametrize("dim", range(2, 9))
    def test_matches_from_polar(self, dim, orientation):
        rng = np.random.default_rng(dim * 13 + (orientation is CW))
        for _ in range(400):
            full = rng.uniform(0, 2 * math.pi)
            rest = rng.uniform(-math.pi / 2, math.pi / 2, dim - 2)
            angles = (full, *rest) if orientation is ACW else (*rest, full)
            p = PolarHC(10.0 ** rng.uniform(-2, 2), angles, orientation)
            built = build_by_rotations(chain_for(p, dim))
            assert vec_close(built.coeffs, from_polar(p).coeffs, rel=1e-12)

    def test_intermediate_norms(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            dim = int(rng.integers(2, 9))
            p = PolarHC(
                10.0 ** rng.uniform(-2, 2),
                tuple(rng.uniform(-math.pi, math.pi, dim - 1)),
                ACW,
            )
            for point in trajectory(chain_for(p, dim)):
                assert math.isclose(
                    math.hypot(*point), p.modulus, rel_tol=1e-12, abs_tol=1e-300
                )

    def test_round_trip_through_arguments(self):
        # chain built from a number's own arguments rebuilds the number
        rng = np.random.default_rng(42)
        for _ in range(200):
            dim = int(rng.integers(2, 9))
            s = CartesianHC(tuple(rng.uniform(-2, 2, dim)))
            p = to_polar(s, ACW)
            assert vec_close(
                build_by_rotations(chain_for(p, dim)).coeffs, s.coeffs, rel=1e-9
            )
