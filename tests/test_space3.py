import cmath
import json
import math

import numpy as np
import pytest

from hyperspace.algebra import div_polar, mul_polar
from hyperspace.core import CartesianHC, approx_eq, modulus, to_dict, to_polar
from hyperspace.rotation import apply_plane_rotation
from hyperspace.space3 import (
    Space3,
    Space3Polar,
    conj3,
    conj3_polar,
    div3,
    div3_coeffs,
    from_dict3,
    from_polar3,
    j_pow,
    mul3,
    mul3_coeffs,
    pow_roots3,
    slave_decompose,
    to_polar3,
)

from util import close, vec_close

I = Space3(0.0, 1.0, 0.0)
J = Space3(0.0, 0.0, 1.0)


def sample(rng) -> Space3:
    a, b, c = rng.uniform(-1, 1, 3) * 10.0 ** rng.uniform(-2, 2)
    return Space3(a, b, c)


class TestJPow:
    def test_square_is_minus_one(self):
        assert j_pow(2) == Space3(-1, 0, 0)

    def test_zeroth_power(self):
        assert j_pow(0) == Space3(1, 0, 0)

    def test_inverse(self):
        assert j_pow(-1) == Space3(0, 0, -1)

    def test_four_cycle_exact(self):
        for n in range(-8, 9):
            assert j_pow(n) == j_pow(n % 4)


class TestPolar3:
    def test_real_axis(self):
        p = to_polar3(Space3(1, 0, 0))
        assert (p.modulus, p.theta, p.phi) == (1.0, 0.0, 0.0)

    def test_pure_top_axis(self):
        p = to_polar3(Space3(0, 0, 2))
        assert p.modulus == 2.0
        assert close(p.theta, math.pi / 2) and close(p.phi, math.pi / 2)

    def test_ones(self):
        # frozen by inverting the triangular form by hand
        p = to_polar3(Space3(1, 1, 1))
        assert close(p.modulus, math.sqrt(3))
        assert close(p.theta, math.atan(math.sqrt(2)))
        assert close(p.phi, math.pi / 4)

    def test_from_polar_master_only(self):
        got = from_polar3(Space3Polar(2, math.pi / 2, 0))
        assert vec_close(got.coeffs, (0, 2, 0))

    def test_real_slave_rotation_absorbed(self):
        # canonical form of a real number has phi = 0 whatever the history
        assert to_polar3(Space3(1, 0, 0)).phi == 0.0
        got = from_polar3(Space3Polar(1, 0, 0))
        assert vec_close(got.coeffs, (1, 0, 0))

    def test_unit_slave(self):
        got = from_polar3(Space3Polar(1, math.pi / 2, math.pi / 2))
        assert vec_close(got.coeffs, (0, 0, 1))

    def test_round_trips(self):
        rng = np.random.default_rng(71)
        for _ in range(500):
            s = sample(rng)
            back = from_polar3(to_polar3(s))
            assert vec_close(back.coeffs, s.coeffs, rel=1e-9)

    def test_polar_round_trip_canonical(self):
        rng = np.random.default_rng(72)
        for _ in range(500):
            p = Space3Polar(
                10.0 ** rng.uniform(-2, 2),
                rng.uniform(1e-6, math.pi - 1e-6),
                rng.uniform(1e-6, 2 * math.pi - 1e-6),
            )
            q = to_polar3(from_polar3(p))
            assert close(q.modulus, p.modulus, rel=1e-9)
            assert close(q.theta, p.theta, rel=1e-9, abs_eps=1e-9)
            assert close(q.phi, p.phi, rel=1e-9, abs_eps=1e-9)

    def test_degenerate_poles(self):
        assert to_polar3(Space3(0, 0, 0)) == Space3Polar(0, 0, 0)
        p = to_polar3(Space3(-3, 0, 0))
        assert close(p.theta, math.pi) and p.phi == 0.0


class TestSlaveDecompose:
    def test_unit_slave(self):
        d = slave_decompose(Space3(0, 0, 1))
        assert close(d.c_r, 0.0, abs_eps=1e-15) and close(d.c_i, 1.0)

    def test_real_number(self):
        d = slave_decompose(Space3(1, 0, 0))
        assert (d.c_r, d.c_i) == (0.0, 0.0)

    def test_master_phase_split(self):
        # theta = atan2(sqrt(1 + 2), 1) = pi/3; frozen recomposition
        s = Space3(1, 1, math.sqrt(2))
        theta = to_polar3(s).theta
        assert close(theta, math.pi / 3)
        d = slave_decompose(s)
        assert close(d.c_r, math.sqrt(2) * 0.5)
        assert close(d.c_i, math.sqrt(6) / 2)
        assert close(d.c_r**2 + d.c_i**2, 2.0, rel=1e-12)


class TestConj3:
    def test_sign_flip(self):
        assert conj3(Space3(1, 2, 3)) == Space3(1, -2, -3)

    def test_real_fixed(self):
        assert conj3(Space3(5, 0, 0)) == Space3(5, 0, 0)

    def test_involution(self):
        s = Space3(0.5, -1.5, 2.5)
        assert conj3(conj3(s)) == s

    def test_polar_chain_matches_coordinate_conjugate(self):
        rng = np.random.default_rng(73)
        for _ in range(200):
            s = sample(rng)
            via_chain = from_polar3(conj3_polar(to_polar3(s)))
            assert vec_close(via_chain.coeffs, conj3(s).coeffs, rel=1e-9)

    def test_conjugate_identity(self):
        rng = np.random.default_rng(74)
        for _ in range(200):
            s = sample(rng)
            p = to_polar3(s)
            got = from_polar3(mul_polar(p, conj3_polar(p)))
            r2 = modulus(s) ** 2
            assert vec_close(got.coeffs, (r2, 0, 0), rel=1e-9)


class TestMulDiv3:
    def test_i_squared(self):
        assert vec_close(mul3(I, I).coeffs, (-1, 0, 0))

    def test_angle_addition(self):
        got = mul_polar(Space3Polar(2, 0.3, 0.4), Space3Polar(3, 0.1, 0.2))
        assert got.modulus == 6.0
        assert close(got.theta, 0.4, rel=1e-15) and close(got.phi, 0.6, rel=1e-15)

    def test_i_times_j_exponent_route(self):
        # master angles add to pi: the exponent route lands on -1
        got = mul3(I, J)
        assert vec_close(got.coeffs, (-1, 0, 0))

    def test_self_quotient(self):
        s = Space3(0.5, -1.5, 2.5)
        assert vec_close(div3(s, s).coeffs, (1, 0, 0))

    def test_minus_one_over_i(self):
        got = div3(Space3(-1, 0, 0), I)
        assert vec_close(got.coeffs, I.coeffs)

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            div3(I, Space3(0, 0, 0))

    def test_div_mul_round_trip(self):
        rng = np.random.default_rng(75)
        for _ in range(300):
            p1, p2 = to_polar3(sample(rng)), to_polar3(sample(rng))
            back = from_polar3(mul_polar(div_polar(p1, p2), p2))
            assert vec_close(back.coeffs, from_polar3(p1).coeffs, rel=1e-9)

    def test_modulus_multiplicative(self):
        rng = np.random.default_rng(76)
        for _ in range(300):
            s1, s2 = sample(rng), sample(rng)
            assert close(
                modulus(mul3(s1, s2)), modulus(s1) * modulus(s2), rel=1e-12
            )

    def test_commutes_exactly(self):
        rng = np.random.default_rng(77)
        for _ in range(200):
            s1, s2 = sample(rng), sample(rng)
            assert mul3(s1, s2) == mul3(s2, s1)

    def test_associates_at_angle_level(self):
        rng = np.random.default_rng(78)
        for _ in range(200):
            p1, p2, p3 = (to_polar3(sample(rng)) for _ in range(3))
            lhs = from_polar3(mul_polar(mul_polar(p1, p2), p3))
            rhs = from_polar3(mul_polar(p1, mul_polar(p2, p3)))
            assert vec_close(lhs.coeffs, rhs.coeffs, rel=1e-9)

    def test_classic_embedding(self):
        # c = 0, phi = 0 operands multiply/divide like plain complex numbers
        rng = np.random.default_rng(79)
        for _ in range(300):
            a1, a2 = rng.uniform(-3, 3, 2)
            b1, b2 = rng.uniform(0, 3, 2)  # phi = 0 needs b >= 0
            s1, s2 = Space3(a1, b1, 0), Space3(a2, b2, 0)
            z1, z2 = complex(a1, b1), complex(a2, b2)
            got = mul3(s1, s2)
            want = z1 * z2
            assert vec_close(got.coeffs, (want.real, want.imag, 0), rel=1e-9)
            got = div3(s1, s2)
            want = z1 / z2
            assert vec_close(got.coeffs, (want.real, want.imag, 0), rel=1e-9)


class TestPowRoots3:
    def test_cube_of_primitive_angle(self):
        power, _ = pow_roots3(Space3Polar(1, math.pi / 3, 0), 3)
        assert vec_close(power.coeffs, (-1, 0, 0))

    def test_square_roots_of_unity(self):
        power, roots = pow_roots3(Space3(1, 0, 0), 2)
        assert vec_close(roots[0].coeffs, (1, 0, 0))
        assert vec_close(roots[1].coeffs, (-1, 0, 0))

    def test_roots_power_back_along_chains(self):
        rng = np.random.default_rng(81)
        for _ in range(200):
            s = sample(rng)
            n = int(rng.integers(1, 7))
            p = to_polar3(s)
            for m in range(n):
                chain = Space3Polar(
                    p.modulus ** (1.0 / n),
                    (p.theta + 2 * math.pi * m) / n,
                    (p.phi + 2 * math.pi * m) / n,
                )
                back = from_polar3(
                    Space3Polar(chain.modulus**n, n * chain.theta, n * chain.phi)
                )
                assert vec_close(back.coeffs, s.coeffs, rel=1e-9)

    def test_identity_order(self):
        s = Space3(0.3, 0.4, 0.5)
        power, roots = pow_roots3(s, 1)
        assert vec_close(power.coeffs, s.coeffs)
        assert len(roots) == 1 and vec_close(roots[0].coeffs, s.coeffs)

    def test_classic_embedding_powers(self):
        rng = np.random.default_rng(82)
        for _ in range(100):
            a, b = rng.uniform(-2, 2), rng.uniform(0, 2)
            n = int(rng.integers(1, 6))
            power, _ = pow_roots3(Space3(a, b, 0), n)
            want = complex(a, b) ** n
            assert vec_close(power.coeffs, (want.real, want.imag, 0), rel=1e-9)

    def test_bad_order(self):
        with pytest.raises(ValueError):
            pow_roots3(Space3(1, 0, 0), 0)


class TestCoeffRoutes:
    def test_classic_reduction_mul(self):
        rng = np.random.default_rng(83)
        for _ in range(200):
            a1, b1, a2, b2 = rng.uniform(-2, 2, 4)
            got = mul3_coeffs(Space3(a1, b1, 0), Space3(a2, b2, 0))
            want = complex(a1, b1) * complex(a2, b2)
            assert vec_close(got.assembled.coeffs, (want.real, want.imag, 0), rel=1e-9)

    def test_classic_reduction_div(self):
        rng = np.random.default_rng(84)
        for _ in range(200):
            a1, b1, a2, b2 = rng.uniform(-2, 2, 4)
            if math.hypot(a2, b2) < 1e-6:
                continue
            got = div3_coeffs(Space3(a1, b1, 0), Space3(a2, b2, 0))
            want = complex(a1, b1) / complex(a2, b2)
            assert vec_close(got.assembled.coeffs, (want.real, want.imag, 0), rel=1e-9)

    def test_self_quotient_classic_subplane(self):
        got = div3_coeffs(Space3(2, 1, 0), Space3(2, 1, 0))
        assert vec_close(got.assembled.coeffs, (1, 0, 0))

    def test_i_times_j_coefficient_route(self):
        # the two routes split: coefficients give -j, the exponent form -1
        got = mul3_coeffs(I, J)
        assert close(got.c, 1.0)
        assert close(got.theta, math.pi)
        assert vec_close(got.assembled.coeffs, (0, 0, -1), abs_eps=1e-12)
        assert vec_close(mul3(I, J).coeffs, (-1, 0, 0))

    def test_agreement_status_recorded_not_assumed(self):
        rng = np.random.default_rng(85)
        disagreements = 0
        for _ in range(100):
            s1, s2 = sample(rng), sample(rng)
            got = mul3_coeffs(s1, s2).assembled
            want = mul3(s1, s2)
            if not approx_eq(got, want):
                disagreements += 1
        assert disagreements > 0  # the routes genuinely differ off-plane

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            div3_coeffs(I, Space3(0, 0, 0))


class TestCoeffRoutesChart:
    """The 3D formulas run in the s3 chart only."""

    @pytest.mark.parametrize("dim", [2, 4])
    def test_other_dimensions_are_refused(self, dim):
        s = CartesianHC(tuple(range(1, dim + 1)))
        for f in (mul3_coeffs, div3_coeffs):
            with pytest.raises(ValueError, match=f"the s3 chart is 3-dimensional, got dimension {dim}"):
                f(s, s)

    def test_plain_3_dim_coordinates_run_as_space3(self):
        x, y = CartesianHC((1, 2, 3)), CartesianHC((0.5, -1, 2))
        for f in (mul3_coeffs, div3_coeffs):
            assert f(x, y) == f(Space3(1, 2, 3), Space3(0.5, -1, 2))

    def test_values_bound_to_another_chart_conflict(self):
        p = to_polar(CartesianHC((1, 2, 3)))
        with pytest.raises(ValueError, match=r"conflicting orientations: \['ccw', 's3'\]"):
            mul3_coeffs(p, p)


class TestAbsorption:
    def test_slave_axis_fixed_by_master_rotation(self):
        # the master rotation plane is spanned by the x and y axes; the
        # slave axis is orthogonal to it, so (0,0,1) is exactly fixed
        rng = np.random.default_rng(86)
        for _ in range(100):
            got = apply_plane_rotation(
                (0.0, 0.0, 1.0), (1.0, 0.0, 0.0), 1, rng.uniform(-6, 6)
            )
            assert got == (0.0, 0.0, 1.0)


class TestJson3:
    def test_coordinate_round_trip(self):
        s = Space3(0.1, -2.5e-17, 3.0000000000000004)
        assert from_dict3(json.loads(json.dumps(to_dict(s)))) == s

    def test_polar_round_trip(self):
        p = Space3Polar(2.5, 0.7853981633974483, 4.71238898038469)
        assert from_dict3(json.loads(json.dumps(to_dict(p)))) == p

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            from_dict3({"kind": "quaternion"})
