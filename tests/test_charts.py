"""The chart engine: cw as mirrored ccw, the s3 chart, canonical seams."""

import json
import math

import numpy as np
import pytest

from hyperspace import algebra, expr
from hyperspace.core import (
    CartesianHC,
    Orientation,
    PolarHC,
    Space3,
    Space3Polar,
    arguments,
    canonical_ranges,
    canonicalize,
    from_dict,
    from_polar,
    resolve_orientation,
    to_dict,
    to_polar,
)
from hyperspace.space3 import mul3, to_polar3

ACW = Orientation.ANTICLOCKWISE
CW = Orientation.CLOCKWISE
S3 = Orientation.S3
TWO_PI = 2.0 * math.pi


def handwritten_cw_arguments(c):
    """The clockwise chain written out directly (not through the mirror)."""
    n = len(c)
    if math.hypot(*c) == 0.0:
        return (0.0,) * (n - 1)
    full = math.atan2(c[n - 1], c[0])
    if full < 0.0:
        full += TWO_PI
    m = math.hypot(c[0], c[n - 1])
    rest = []
    for k in range(n - 2, 0, -1):
        rest.append(math.atan2(c[k], m))
        m = math.hypot(m, c[k])
    rest.reverse()
    return tuple(rest) + (full,)


def handwritten_cw_point(r, th):
    """Clockwise coefficients from the leading cosine products."""
    n = len(th) + 1
    prefix = [1.0] * (n + 1)
    for j in range(1, n):
        prefix[j] = prefix[j - 1] * math.cos(th[j - 1])
    return (r * prefix[n - 1],) + tuple(
        r * math.sin(th[k - 1]) * prefix[k - 1] for k in range(1, n)
    )


class TestMirroredChart:
    @pytest.mark.parametrize("dim", range(2, 9))
    def test_cw_matches_the_handwritten_chain_bit_for_bit(self, dim):
        rng = np.random.default_rng(500 + dim)
        for row in rng.uniform(-1, 1, (300, dim)) * 10.0 ** rng.uniform(-3, 3, (300, 1)):
            s = CartesianHC(tuple(row))
            assert arguments(s, CW) == handwritten_cw_arguments(s.coeffs)

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_cw_point_matches_the_handwritten_products_bit_for_bit(self, dim):
        rng = np.random.default_rng(600 + dim)
        for _ in range(300):
            r = 10.0 ** rng.uniform(-3, 3)
            th = tuple(rng.uniform(-7, 7, dim - 1))
            assert from_polar(PolarHC(r, th, CW)).coeffs == handwritten_cw_point(r, th)

    def test_cw_ranges_are_ccw_reversed(self):
        assert canonical_ranges(CW, 5) == canonical_ranges(ACW, 5)[::-1]


class TestCanonicalSeam:
    """Angles just below zero must not round up to the excluded 2*pi."""

    def test_ccw_full_angle(self):
        p = to_polar(CartesianHC((1.0, -1e-300)))
        assert 0.0 <= p.angles[0] < TWO_PI
        assert p.is_canonical()

    def test_cw_full_angle(self):
        p = to_polar(CartesianHC((1.0, 0.5, -1e-300)), CW)
        assert 0.0 <= p.angles[-1] < TWO_PI
        assert p.is_canonical()

    def test_s3_slave_angle(self):
        p = to_polar3(Space3(1.0, 1.0, -1e-300))
        assert 0.0 <= p.phi < TWO_PI
        assert p.is_canonical()

    def test_the_seam_maps_to_zero(self):
        assert to_polar(CartesianHC((1.0, -1e-300))).angles[0] == 0.0


class TestS3Chart:
    def test_3d_values_keep_their_chart_under_any_orientation(self):
        s, t = Space3(1, 2, 3), Space3(0.5, -1, 2)
        for o in (ACW, CW, S3):
            assert to_polar(s, o) == to_polar3(s)
            assert algebra.mul(s, t, o) == mul3(s, t)
            assert isinstance(algebra.as_polar(s, o), Space3Polar)

    def test_3d_polar_values_are_space3polar(self):
        p, q = to_polar3(Space3(1, 2, 3)), to_polar3(Space3(-1, 0.5, 2))
        assert type(algebra.mul_polar(p, q)) is Space3Polar
        assert type(algebra.div_polar(p, q)) is Space3Polar
        assert type(algebra.pow_int_polar(p, 3)) is Space3Polar
        assert all(type(r) is Space3Polar for r in algebra.nth_roots_polar(p, 3))
        assert type(canonicalize(Space3Polar(1, 4, 7))) is Space3Polar
        assert type(from_polar(p)) is Space3

    def test_a_3_dim_cartesian_converts_under_s3_on_request(self):
        p = to_polar(CartesianHC((1, 2, 3)), S3)
        assert p == to_polar3(Space3(1, 2, 3))
        assert expr.evaluate(expr.parse("c[1,2,3]"), S3) == Space3(1, 2, 3)
        assert expr.evaluate(expr.parse("p[1; 0.5, 2]"), S3) == Space3Polar(1, 0.5, 2)

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_other_dimensions_are_rejected(self, dim):
        s = CartesianHC(tuple(range(1, dim + 1)))
        with pytest.raises(ValueError, match=f"the s3 chart is 3-dimensional, got dimension {dim}"):
            resolve_orientation(S3, s)  # the rule's one home
        with pytest.raises(ValueError, match="3-dimensional"):
            to_polar(s, S3)
        with pytest.raises(ValueError, match="3-dimensional"):
            arguments(s, S3)
        with pytest.raises(ValueError, match="3-dimensional"):
            algebra.mul(s, s, S3)
        with pytest.raises(ValueError, match="3-dimensional"):
            PolarHC(1.0, (0.1,) * (dim - 1), S3)
        with pytest.raises(ValueError, match="3-dimensional"):
            canonical_ranges(S3, dim)
        # evaluate's literals: parse knows no chart, so an s3 request meets them there
        for text in (f"c[{','.join(['1'] * dim)}]", f"p[1; {','.join(['0.5'] * (dim - 1))}]"):
            with pytest.raises(ValueError, match="3-dimensional"):
                expr.evaluate(expr.parse(text), S3)

    def test_a_lifted_value_under_s3_converts_in_no_chart(self):
        # a lift adds an axis to a 3D value: plain coordinates of dimension 4,
        # which leave the s3 chart only when a product or power converts them
        tree = "lift(c[1,2,3], 1)"
        assert expr.evaluate(expr.parse(f"conj({tree})"), S3) == CartesianHC((1, -2, -3, -1))
        for text in (f"{tree} * {tree}", f"{tree} / {tree}", f"{tree}^2", f"arg({tree}, 1)"):
            with pytest.raises(ValueError, match="the s3 chart is 3-dimensional, got dimension 4"):
                expr.evaluate(expr.parse(text), S3)

    def test_polar_payload_under_s3_needs_two_angles(self):
        payload = {"kind": "polar", "modulus": 1.0, "angles": [0.1, 0.2, 0.3], "orientation": "s3"}
        with pytest.raises(ValueError, match="3-dimensional"):
            from_dict(payload)
        got = from_dict(dict(payload, angles=[0.1, 0.2]))
        assert got == Space3Polar(1.0, 0.1, 0.2)

    def test_mixing_a_3d_polar_with_a_ccw_chain_is_rejected(self):
        with pytest.raises(ValueError, match="conflicting orientations"):
            algebra.mul_polar(Space3Polar(1, 0.1, 0.2), PolarHC(1, (0.1, 0.2), ACW))

    def test_json_kinds_are_kept(self):
        s, p = Space3(0.1, -2.5, 3.0), Space3Polar(2.5, 0.75, 4.5)
        assert json.dumps(to_dict(s)) == '{"kind": "space3", "a": 0.1, "b": -2.5, "c": 3.0}'
        assert json.dumps(to_dict(p)) == (
            '{"kind": "space3polar", "modulus": 2.5, "theta": 0.75, "phi": 4.5}'
        )
        assert from_dict(to_dict(s)) == s and from_dict(to_dict(p)) == p

    def test_values_of_different_families_differ(self):
        assert Space3(1, 2, 3) != CartesianHC((1, 2, 3))
        assert repr(Space3(1, 2, 3)) == "s3[1,2,3]"
        assert repr(Space3Polar(1, 2, 3)) == "s3p[1; 2, 3]"


class TestChartRequests:
    # a requested chart is an Orientation, or None for the value's own chart
    s = CartesianHC((1.0, 2.0, 3.0))

    @pytest.mark.parametrize("bad", ["cw", "ccw", "s3", 1])
    def test_a_chart_that_is_not_an_orientation_is_rejected(self, bad):
        # evaluate checks its chart where it starts, also for trees whose
        # nodes pick no chart
        trees = map(expr.parse, ["c[1,2,3] * c[1,0,1]", "c[1,2]+c[3,4]", "abs(c[1,2])", "-c[1,2]",
                                 "conj(c[1,2])", "lift(c[3,4],12)", "p[1; 0.5]*c[1,1]",
                                 "s3p[2; 0.5, 1] / s3[1,2,3]"])
        calls = [
            lambda: to_polar(self.s, bad),
            lambda: arguments(self.s, bad),
            lambda: algebra.mul(self.s, self.s, bad),
            lambda: algebra.nth_roots(self.s, 2, bad),
            *(lambda tree=tree: expr.evaluate(tree, bad) for tree in trees),
            lambda: canonical_ranges(bad, 3),
        ]
        for call in calls:
            with pytest.raises(TypeError, match=f"bad orientation: {bad!r}"):
                call()

    def test_none_means_the_values_chart_else_ccw(self):
        assert to_polar(self.s, None) == to_polar(self.s, ACW)
        assert arguments(self.s, None) == arguments(self.s, ACW)
        assert algebra.mul(self.s, self.s, None) == algebra.mul(self.s, self.s, ACW)
        assert to_polar(Space3(1, 2, 3), None) == to_polar3(Space3(1, 2, 3))
        # evaluate's literals take the request, ccw for None, in every tree
        for text in ["p[1; 0.5]*c[1,1]", "p[2; 0.5, 1]^2", "s3p[2; 0.5, 1] / s3[1,2,3]", "c[1,2]+c[3,4]"]:
            tree = expr.parse(text)
            assert expr.evaluate(tree, None) == expr.evaluate(tree, ACW)


class TestS3PolarValues:
    def test_a_plain_polar_value_in_the_s3_chart_is_rejected(self):
        # it would equal neither the Space3Polar of the same numbers nor its
        # own JSON round trip
        with pytest.raises(TypeError, match="Space3Polar"):
            PolarHC(2.0, (0.5, 1.0), S3)
