import json
import math
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyperspace.algebra import nth_roots
from hyperspace.core import (
    CartesianHC,
    DimensionMismatchError,
    Orientation,
    PolarHC,
    Space3,
    Space3Polar,
    Tolerance,
    approx_eq,
    arguments,
    canonicalize,
    conjugate,
    from_dict,
    from_polar,
    modulus,
    to_dict,
    to_polar,
)

from util import COPIES, angle_close, close, vec_close, wide_floats

ACW = Orientation.ANTICLOCKWISE
CW = Orientation.CLOCKWISE
ORIENTATIONS = [ACW, CW]


def c(*coeffs) -> CartesianHC:
    return CartesianHC(tuple(coeffs))


coeff = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
dims = st.integers(2, 8)
# every part of the double range, with a finite modulus
cartesians = dims.flatmap(
    lambda n: st.lists(coeff | wide_floats, min_size=n, max_size=n)
    .filter(lambda v: math.isfinite(math.hypot(*v)))
    .map(lambda v: CartesianHC(tuple(v)))
)


class TestTypes:
    def test_dim_floor(self):
        with pytest.raises(ValueError):
            CartesianHC((1.0,))

    def test_finite_only(self):
        with pytest.raises(ValueError):
            CartesianHC((1.0, math.inf))
        with pytest.raises(ValueError):
            PolarHC(math.nan, (0.0,))

    def test_negative_modulus_rejected(self):
        with pytest.raises(ValueError):
            PolarHC(-1.0, (0.0,))

    @pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
    def test_finite_angles_only(self, angle):
        with pytest.raises(ValueError, match="angles must be finite"):
            PolarHC(1.0, (0.5, angle))

    def test_a_coefficient_by_index(self):
        s = c(1.5, -2.0, 3.0)
        assert (s[0], s[1], s[-1]) == (1.5, -2.0, 3.0)
        with pytest.raises(IndexError):
            s[3]

    def test_a_request_against_a_bound_chart_conflicts(self):
        # a cw chain asked for as ccw: the request must agree with the value's chart
        from hyperspace import algebra

        with pytest.raises(ValueError, match=r"conflicting orientations: \['ccw', 'cw'\]"):
            algebra.as_polar(to_polar(c(1.0, 2.0, 3.0), CW), ACW)

    def test_tolerance_positive(self):
        with pytest.raises(ValueError):
            Tolerance(abs_eps=0.0)
        with pytest.raises(ValueError):
            Tolerance(rel_eps=-1e-9)
        # an infinite or nan budget would pass every equality claim
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite and strictly positive"):
                Tolerance(abs_eps=bad)
            with pytest.raises(ValueError, match="finite and strictly positive"):
                Tolerance(rel_eps=bad)


class TestModulus:
    def test_pythagorean_triple(self):
        assert modulus(c(3, 4)) == 5.0

    def test_zero_vector(self):
        assert modulus(c(0, 0, 0)) == 0.0

    def test_one_two_two(self):
        assert modulus(c(1, 2, 2)) == 3.0


class TestArguments:
    def test_positive_real_axis(self):
        assert arguments(c(1, 0)) == (0.0,)

    def test_imaginary_axis(self):
        assert arguments(c(0, 1)) == (math.pi / 2,)

    def test_pure_top_axis_anticlockwise(self):
        # theta_1 is defined 0 at the singular sub-modulus
        assert arguments(c(0, 0, 5), ACW) == (0.0, math.pi / 2)

    def test_negative_axis_quadrant(self):
        assert arguments(c(-1, 0)) == (math.pi,)
        assert close(arguments(c(0, -1))[0], 3 * math.pi / 2)


class TestToPolar:
    def test_classic_plane(self):
        p = to_polar(c(1, 1))
        assert close(p.modulus, math.sqrt(2)) and close(p.angles[0], math.pi / 4)

    def test_axis_point(self):
        p = to_polar(c(0, 0, 2), ACW)
        assert p.modulus == 2.0
        assert p.angles == (0.0, math.pi / 2)

    def test_ones_vector(self):
        # frozen from inverting the anticlockwise conversion by hand
        p = to_polar(c(1, 1, 1), ACW)
        assert close(p.modulus, math.sqrt(3))
        assert close(p.angles[0], math.pi / 4)
        assert close(p.angles[1], math.atan(1 / math.sqrt(2)))
        assert vec_close(from_polar(p).coeffs, (1, 1, 1))


class TestFromPolar:
    def test_unit_imaginary(self):
        assert vec_close(from_polar(PolarHC(1, (math.pi / 2,))).coeffs, (0, 1))

    def test_cosine_kill(self):
        got = from_polar(PolarHC(2, (math.pi / 2, math.pi / 2), ACW))
        assert vec_close(got.coeffs, (0, 0, 2))

    def test_zero_angles_real_axis(self):
        assert from_polar(PolarHC(2, (0, 0, 0))).coeffs == (2, 0, 0, 0)

    def test_clockwise_prefix_products(self):
        got = from_polar(PolarHC(2, (math.pi / 2, math.pi / 2), CW))
        assert vec_close(got.coeffs, (0, 2, 0))


class TestConjugate:
    def test_real_fixed(self):
        assert conjugate(c(2, 0, 0)).coeffs == (2, 0, 0)

    def test_classic(self):
        assert conjugate(c(1, 1)).coeffs == (1, -1)

    def test_matches_negated_angle_route(self):
        # oracle: negate every chain angle, convert back
        s = c(1, 2, 3)
        p = to_polar(s, ACW)
        via_polar = from_polar(PolarHC(p.modulus, tuple(-a for a in p.angles), ACW))
        assert vec_close(conjugate(s).coeffs, via_polar.coeffs)

    def test_involution_exact(self):
        s = c(0.3, -1.7, 2.9, 0.0)
        assert conjugate(conjugate(s)) == s

    def test_modulus_preserved_exactly(self):
        s = c(1.5, -2.5, 3.5)
        assert to_polar(conjugate(s)).modulus == to_polar(s).modulus


class TestApproxEq:
    def test_identity(self):
        assert approx_eq(c(1, 2), c(1, 2))

    def test_within_tolerance(self):
        assert approx_eq(c(1, 2), c(1, 2 + 1e-15), Tolerance(abs_eps=1e-12))

    def test_distinct_points(self):
        assert not approx_eq(c(1, 2), c(2, 1))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            approx_eq(c(1, 2), c(1, 2, 3))


class TestRoundTrips:
    @pytest.mark.parametrize("orientation", ORIENTATIONS)
    @pytest.mark.parametrize("dim", range(2, 9))
    def test_cartesian_round_trip_seeded(self, dim, orientation):
        rng = np.random.default_rng(dim * 17 + (orientation is CW))
        coeffs = rng.uniform(-1, 1, (500, dim)) * 10.0 ** rng.uniform(-2, 2, (500, 1))
        for row in coeffs:
            s = CartesianHC(tuple(row))
            back = from_polar(to_polar(s, orientation))
            assert vec_close(back.coeffs, s.coeffs, rel=1e-9)

    @given(cartesians, st.sampled_from(ORIENTATIONS))
    def test_cartesian_round_trip(self, s, orientation):
        back = from_polar(to_polar(s, orientation))
        assert vec_close(back.coeffs, s.coeffs, rel=1e-9)

    @pytest.mark.xfail(strict=True, reason="the ulp bounds hold for normal moduli only")
    @pytest.mark.parametrize("orientation", ORIENTATIONS)
    def test_an_all_subnormal_vector_round_trips(self, orientation):
        # (-5e-324,) * 5 comes back with -0.0 in slot 1 (ccw) or slot 4 (cw)
        s = c(*(-5e-324,) * 5)
        assert from_polar(to_polar(s, orientation)).coeffs == s.coeffs

    @pytest.mark.parametrize("orientation", ORIENTATIONS)
    def test_polar_round_trip_canonical(self, orientation):
        rng = np.random.default_rng(99)
        for _ in range(500):
            dim = int(rng.integers(2, 9))
            full = rng.uniform(0, 2 * math.pi)
            rest = rng.uniform(-math.pi / 2, math.pi / 2, dim - 2)
            angles = (
                (full, *rest) if orientation is ACW else (*rest, full)
            )
            p = PolarHC(10.0 ** rng.uniform(-2, 2), angles, orientation)
            q = to_polar(from_polar(p), orientation)
            assert close(q.modulus, p.modulus, rel=1e-9)
            full_idx = 0 if orientation is ACW else dim - 2
            for k, (a, b) in enumerate(zip(p.angles, q.angles)):
                if k == full_idx:
                    assert angle_close(a, b, tol=1e-9)
                else:
                    assert close(a, b, rel=1e-9, abs_eps=1e-9)

    @given(cartesians, st.sampled_from(ORIENTATIONS))
    def test_to_polar_is_canonical(self, s, orientation):
        assert to_polar(s, orientation).is_canonical()

    def test_modulus_of_from_polar(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            dim = int(rng.integers(2, 9))
            p = PolarHC(
                10.0 ** rng.uniform(-2, 2),
                tuple(rng.uniform(-math.pi, math.pi, dim - 1)),
                ACW,
            )
            assert close(modulus(from_polar(p)), p.modulus, rel=1e-12)

    def test_zero_is_canonical_zero(self):
        p = to_polar(c(0, 0, 0, 0))
        assert p.modulus == 0.0 and p.angles == (0.0, 0.0, 0.0)

    def test_canonicalize_preserves_point(self):
        p = PolarHC(2.0, (0.4, 2.8), ACW)  # second angle out of range
        q = canonicalize(p)
        assert q.is_canonical()
        assert vec_close(from_polar(q).coeffs, from_polar(p).coeffs, rel=1e-12)


class TestClassicPlaneEquivalence:
    """At N = 2 both orientations coincide with the classic decomposition."""

    def test_orientations_coincide(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            s = CartesianHC(tuple(rng.uniform(-5, 5, 2)))
            assert to_polar(s, ACW) == PolarHC(
                to_polar(s, CW).modulus, to_polar(s, CW).angles, ACW
            )

    def test_matches_atan2(self):
        s = c(-3.0, 4.0)
        p = to_polar(s)
        assert close(p.modulus, 5.0)
        assert angle_close(p.angles[0], math.atan2(4.0, -3.0) % (2 * math.pi))


class TestJson:
    def test_cartesian_bit_exact(self):
        s = c(0.1, -2.5e-17, 3.0000000000000004)
        round_tripped = from_dict(json.loads(json.dumps(to_dict(s))))
        assert round_tripped == s
        assert all(a == b for a, b in zip(round_tripped.coeffs, s.coeffs))

    def test_polar_bit_exact(self):
        p = PolarHC(1.4142135623730951, (0.7853981633974483, -0.1), CW)
        q = from_dict(json.loads(json.dumps(to_dict(p))))
        assert q == p and q.orientation is CW

    @given(dims.flatmap(lambda n: st.tuples(*[wide_floats] * n)))
    def test_bit_exact_over_the_double_range(self, xs):
        s = CartesianHC(xs)
        back = from_dict(json.loads(json.dumps(to_dict(s))))
        assert list(map(float.hex, back.coeffs)) == list(map(float.hex, xs))
        p = PolarHC(abs(xs[0]), xs[1:], CW)
        back = from_dict(json.loads(json.dumps(to_dict(p))))
        assert list(map(float.hex, (back.modulus, *back.angles))) == list(
            map(float.hex, (abs(xs[0]), *xs[1:]))
        )

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            from_dict({"kind": "spherical"})

    @pytest.mark.parametrize("value", [3.0, (1.0, 2.0), None])
    def test_to_dict_of_a_non_number(self, value):
        with pytest.raises(TypeError, match="not a hyperspace number"):
            to_dict(value)


class TestEntryChecks:
    """Decoded payloads are entry points: they keep every check and the
    float coercion that the engine's own results skip."""

    @pytest.mark.parametrize(
        "payload",
        [
            {"kind": "polar", "modulus": -1.0, "angles": [0.0], "orientation": "ccw"},
            {"kind": "space3polar", "modulus": -0.5, "theta": 0.0, "phi": 0.0},
        ],
    )
    def test_negative_modulus(self, payload):
        with pytest.raises(ValueError, match="modulus must be finite and >= 0"):
            from_dict(payload)

    def test_int_and_bool_coefficients_come_back_as_floats(self):
        s = from_dict({"kind": "cartesian", "coeffs": [1, True, False]})
        assert s.coeffs == (1.0, 1.0, 0.0)
        assert all(type(x) is float for x in s.coeffs)
        p = from_dict({"kind": "polar", "modulus": True, "angles": [0, 2], "orientation": "cw"})
        assert type(p.modulus) is float and all(type(a) is float for a in p.angles)
        q = from_dict({"kind": "space3polar", "modulus": 2, "theta": 1, "phi": False})
        assert [type(x) for x in (q.modulus, *q.angles)] == [float] * 3
        t = from_dict({"kind": "space3", "a": 1, "b": True, "c": 0})
        assert t.coeffs == (1.0, 1.0, 0.0) and all(type(x) is float for x in t.coeffs)

    def test_bad_orientation(self):
        with pytest.raises(ValueError, match="not a valid Orientation"):
            from_dict({"kind": "polar", "modulus": 1.0, "angles": [0.0], "orientation": "up"})
        with pytest.raises(TypeError, match="bad orientation"):
            PolarHC(1.0, (0.0,), "ccw")

    @pytest.mark.parametrize(
        "payload,error",
        [
            ({"kind": "polar", "modulus": 1.0, "angles": [0.0, 0.0, 0.0], "orientation": "s3"},
             "the s3 chart is 3-dimensional, got dimension 4"),
            ({"kind": "polar", "modulus": 1.0, "angles": [0.0], "orientation": "s3"},
             "the s3 chart is 3-dimensional, got dimension 2"),
            ({"kind": "polar", "modulus": 1.0, "angles": [], "orientation": "ccw"},
             "need at least one angle"),
            ({"kind": "cartesian", "coeffs": [1.0]}, "need at least 2 coefficients"),
        ],
    )
    def test_wrong_length(self, payload, error):
        with pytest.raises(ValueError, match=error):
            from_dict(payload)

    def test_wrong_length_space3(self):
        with pytest.raises(KeyError):
            from_dict({"kind": "space3", "a": 1.0, "b": 2.0})


class TestFrozen:
    VALUES = [
        CartesianHC((1.0, 2.0)),
        PolarHC(1.0, (0.5,), CW),
        Space3(1.0, 2.0, 3.0),
        Space3Polar(1.0, 0.5, 0.25),
        # engine results, built without the constructors
        to_polar(CartesianHC((1.0, 2.0, 3.0))),
        from_polar(PolarHC(2.0, (0.5, 0.25), CW)),
        to_polar(Space3(1.0, 2.0, 3.0)),
        conjugate(Space3(1.0, 2.0, 3.0)),
    ]

    @pytest.mark.parametrize("value", VALUES, ids=repr)
    @pytest.mark.parametrize("name", ["coeffs", "modulus", "angles", "orientation", "a", "theta", "x"])
    def test_every_attribute_is_frozen(self, value, name):
        with pytest.raises(FrozenInstanceError):
            setattr(value, name, 1.0)
        with pytest.raises(FrozenInstanceError):
            delattr(value, name)

    def test_engine_results_are_whole_values(self):
        p = to_polar(Space3(1.0, 2.0, 3.0))
        assert type(p) is Space3Polar and p.orientation is Orientation.S3
        q = Space3Polar(p.modulus, p.theta, p.phi)
        assert p == q and hash(p) == hash(q)
        s = from_polar(PolarHC(2.0, (0.5, 0.25), CW))
        assert type(s) is CartesianHC and s == CartesianHC(s.coeffs)
        assert type(conjugate(Space3(1.0, 2.0, 3.0))) is Space3


class TestCopies:
    VALUES = TestFrozen.VALUES + [
        Tolerance(),
        Tolerance(abs_eps=1e-6, rel_eps=1e-3),
        nth_roots(CartesianHC((-1.0, 0.0)), 2),
        nth_roots(Space3(1.0, 2.0, 3.0), 3),
    ]

    @pytest.mark.parametrize("value", VALUES, ids=repr)
    @pytest.mark.parametrize("how", sorted(COPIES))
    def test_a_copy_is_an_equal_value_of_the_same_type(self, value, how):
        twin = COPIES[how](value)
        assert type(twin) is type(value)
        assert twin == value and hash(twin) == hash(value)
        assert repr(twin) == repr(value)
        with pytest.raises(FrozenInstanceError):
            twin.x = 1.0  # a copy is as frozen as its original, for any name
