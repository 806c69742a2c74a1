import cmath
import math

import numpy as np
import pytest

from hyperspace.algebra import (
    RootSet,
    add,
    div,
    div_polar,
    mul,
    mul_polar,
    negate,
    nth_roots,
    nth_roots_polar,
    pow_int,
    pow_int_polar,
    sub,
)
from hyperspace.core import (
    CartesianHC,
    DimensionMismatchError,
    Orientation,
    PolarHC,
    approx_eq,
    conjugate,
    from_polar,
    modulus,
    to_polar,
)
from hyperspace.space3 import Space3

from util import close, vec_close

ACW = Orientation.ANTICLOCKWISE


def c(*coeffs) -> CartesianHC:
    return CartesianHC(tuple(coeffs))


def sample(rng, dim) -> CartesianHC:
    return CartesianHC(tuple(rng.uniform(-1, 1, dim) * 10.0 ** rng.uniform(-2, 2)))


class TestAddNegate:
    def test_vector_addition(self):
        assert add(c(1, 2, 3), c(4, 5, 6)).coeffs == (5, 7, 9)

    def test_additive_identity(self):
        s = c(1.5, -2.5, 0.25)
        assert add(s, c(0, 0, 0)) == s

    def test_conjugate_pair_sums_real(self):
        assert add(c(1, 1), c(1, -1)).coeffs == (2, 0)

    def test_negate(self):
        assert negate(c(1, -2)).coeffs == (-1, 2)

    def test_negate_involution(self):
        s = c(0.25, -3.5)
        assert negate(negate(s)) == s

    def test_negate_zero(self):
        assert negate(c(0, 0)).coeffs == (0, 0)

    def test_sub(self):
        assert sub(c(5, 7), c(1, 2)).coeffs == (4, 5)

    @pytest.mark.parametrize(
        "op", [add, sub, mul, div, mul_polar, div_polar], ids=lambda op: op.__name__
    )
    def test_dimension_mismatch(self, op):
        for x, y in ((c(1, 2), c(1, 2, 3)), (Space3(1, 2, 3), c(1, 2, 3, 4))):
            if op in (mul_polar, div_polar):
                x, y = to_polar(x), to_polar(y)
            with pytest.raises(DimensionMismatchError):
                op(x, y)


class TestMul:
    def test_classic_square(self):
        assert vec_close(mul(c(1, 1), c(1, 1)).coeffs, (0, 2))

    def test_angle_addition(self):
        p1 = PolarHC(2, (0.3, 0.4), ACW)
        p2 = PolarHC(3, (0.1, 0.2), ACW)
        got = mul_polar(p1, p2)
        assert got.modulus == 6.0
        assert vec_close(got.angles, (0.4, 0.6), rel=1e-15)

    def test_multiplicative_identity(self):
        s = c(0.5, -1.5, 2.5)
        assert vec_close(mul(c(1, 0, 0), s).coeffs, s.coeffs)

    def test_commutative_exact(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            dim = int(rng.integers(2, 8))
            s1, s2 = sample(rng, dim), sample(rng, dim)
            assert mul(s1, s2) == mul(s2, s1)

    def test_associative_at_angle_level(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            dim = int(rng.integers(2, 8))
            p1, p2, p3 = (to_polar(sample(rng, dim)) for _ in range(3))
            lhs = from_polar(mul_polar(mul_polar(p1, p2), p3))
            rhs = from_polar(mul_polar(p1, mul_polar(p2, p3)))
            assert vec_close(lhs.coeffs, rhs.coeffs, rel=1e-9)

    def test_modulus_multiplicative(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            dim = int(rng.integers(2, 8))
            s1, s2 = sample(rng, dim), sample(rng, dim)
            assert close(modulus(mul(s1, s2)), modulus(s1) * modulus(s2), rel=1e-12)

    def test_conjugate_identity(self):
        rng = np.random.default_rng(24)
        for _ in range(200):
            dim = int(rng.integers(2, 8))
            s = sample(rng, dim)
            expect = (modulus(s) ** 2,) + (0.0,) * (dim - 1)
            assert vec_close(mul(s, conjugate(s)).coeffs, expect, rel=1e-9)

    def test_mixed_polar_cartesian_operands(self):
        s = c(1, 1)
        p = to_polar(s)
        assert vec_close(mul(p, s).coeffs, (0, 2))

    def test_conflicting_orientations_rejected(self):
        p1 = PolarHC(1, (0.1,), Orientation.ANTICLOCKWISE)
        p2 = PolarHC(1, (0.1,), Orientation.CLOCKWISE)
        with pytest.raises(ValueError):
            mul_polar(p1, p2)


class TestDiv:
    def test_self_quotient(self):
        s = c(0.5, -1.5, 2.5, 3.0)
        assert vec_close(div(s, s).coeffs, (1, 0, 0, 0))

    def test_classic_quotient(self):
        assert vec_close(div(c(0, 2), c(1, 1)).coeffs, (1, 1))

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            div(c(1, 1), c(0, 0))

    def test_mul_div_round_trip_polar(self):
        rng = np.random.default_rng(25)
        for _ in range(200):
            dim = int(rng.integers(2, 8))
            p1, p2 = to_polar(sample(rng, dim)), to_polar(sample(rng, dim))
            back = from_polar(mul_polar(div_polar(p1, p2), p2))
            assert vec_close(back.coeffs, from_polar(p1).coeffs, rel=1e-9)

    def test_modulus_quotient(self):
        rng = np.random.default_rng(26)
        for _ in range(100):
            dim = int(rng.integers(2, 8))
            s1, s2 = sample(rng, dim), sample(rng, dim)
            assert close(modulus(div(s1, s2)), modulus(s1) / modulus(s2), rel=1e-12)


class TestPow:
    def test_de_moivre_n2(self):
        assert vec_close(pow_int(c(1, 1), 2).coeffs, (0, 2))

    def test_zeroth_power(self):
        assert vec_close(pow_int(c(0.3, -0.4, 0.5), 0).coeffs, (1, 0, 0))

    def test_cube_of_primitive_angle(self):
        got = pow_int(PolarHC(1, (math.pi / 3,), ACW), 3)
        assert vec_close(got.coeffs, (-1, 0))

    def test_negative_power_of_zero(self):
        with pytest.raises(ZeroDivisionError):
            pow_int(c(0, 0), -1)

    def test_pow_equals_mul_fold(self):
        rng = np.random.default_rng(27)
        for _ in range(60):
            dim = int(rng.integers(2, 8))
            s = sample(rng, dim)
            p = to_polar(s)
            acc = PolarHC(1.0, (0.0,) * (dim - 1), ACW)
            for n in range(0, 9):
                assert vec_close(
                    pow_int(s, n).coeffs, from_polar(acc).coeffs, rel=1e-9
                )
                acc = mul_polar(acc, p)

    def test_negative_power_is_inverse(self):
        s = c(2.0, 1.0, -0.5)
        prod = mul_polar(to_polar(s), pow_int_polar(to_polar(s), -1))
        assert vec_close(from_polar(prod).coeffs, (1, 0, 0), rel=1e-12)


class TestRoots:
    def test_square_roots_of_minus_one(self):
        got = nth_roots(c(-1, 0), 2)
        assert vec_close(got[0].coeffs, (0, 1))
        assert vec_close(got[1].coeffs, (0, -1))

    def test_a_root_set_is_never_empty(self):
        with pytest.raises(ValueError, match="a root set holds at least one root"):
            RootSet(())

    def test_first_root_identity(self):
        got = nth_roots(c(1, 0), 1)
        assert len(got) == 1 and vec_close(got[0].coeffs, (1, 0))

    def test_cube_roots_of_axis_point(self):
        # oracle: raise every returned root back along its chain
        s = c(0, 0, 8)
        chains = nth_roots_polar(to_polar(s), 3)
        points = nth_roots(s, 3)
        assert len(points) == 3
        for chain, point in zip(chains, points):
            assert vec_close(from_polar(chain).coeffs, point.coeffs, rel=1e-12)
            back = from_polar(pow_int_polar(chain, 3))
            assert vec_close(back.coeffs, s.coeffs, rel=1e-9)

    def test_principal_root_powers_back_from_coordinates(self):
        rng = np.random.default_rng(28)
        for _ in range(100):
            dim = int(rng.integers(2, 8))
            s = sample(rng, dim)
            n = int(rng.integers(1, 7))
            principal = nth_roots(s, n)[0]
            assert vec_close(pow_int(principal, n).coeffs, s.coeffs, rel=1e-9)

    def test_roots_distinct_for_nonzero(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            dim = int(rng.integers(2, 8))
            s = sample(rng, dim)
            n = int(rng.integers(2, 7))
            roots = nth_roots(s, n)
            for i in range(n):
                for j in range(i + 1, n):
                    assert not approx_eq(roots[i], roots[j])

    def test_roots_of_zero(self):
        roots = nth_roots(c(0, 0, 0), 3)
        assert all(r.coeffs == (0, 0, 0) for r in roots)

    def test_bad_order(self):
        with pytest.raises(ValueError):
            nth_roots(c(1, 0), 0)

    def test_rootset_indexing(self):
        rs = RootSet((c(1, 0), c(-1, 0)))
        assert len(rs) == 2 and rs[1].coeffs == (-1, 0)


class TestClassicOracle:
    """At N = 2 the whole algebra agrees with textbook complex arithmetic."""

    def test_against_complex(self):
        rng = np.random.default_rng(31)
        for _ in range(500):
            s1, s2 = sample(rng, 2), sample(rng, 2)
            z1, z2 = complex(*s1.coeffs), complex(*s2.coeffs)
            zprod = z1 * z2
            assert vec_close(mul(s1, s2).coeffs, (zprod.real, zprod.imag), rel=1e-9)
            assert vec_close(div(s1, s2).coeffs, ((z1 / z2).real, (z1 / z2).imag), rel=1e-9)
            n = int(rng.integers(-4, 9))
            zp = z1**n
            assert vec_close(pow_int(s1, n).coeffs, (zp.real, zp.imag), rel=1e-9)
            k = int(rng.integers(1, 7))
            phase = cmath.phase(z1) % (2 * math.pi)
            mag = abs(z1) ** (1.0 / k)
            for m, root in enumerate(nth_roots(s1, k)):
                want = cmath.rect(mag, (phase + 2 * math.pi * m) / k)
                assert vec_close(root.coeffs, (want.real, want.imag), rel=1e-9)
