import math

import numpy as np
import pytest

from hyperspace import algebra
from hyperspace.coeff_formulas import (
    CoeffBreakdown,
    div_coeffs_coordinate,
    div_coeffs_general,
    mul_coeffs_coordinate,
    mul_coeffs_general,
)
from hyperspace.core import (
    CartesianHC,
    DimensionMismatchError,
    Orientation,
    PolarHC,
    from_polar,
)

from util import close, vec_close

ACW = Orientation.ANTICLOCKWISE
CW = Orientation.CLOCKWISE

MUL_EVALUATORS = [mul_coeffs_general, mul_coeffs_coordinate]
DIV_EVALUATORS = [div_coeffs_general, div_coeffs_coordinate]


def c(*coeffs) -> CartesianHC:
    return CartesianHC(tuple(coeffs))


def restricted_sample(rng, dim) -> CartesianHC:
    # all component arguments in (-pi/4, pi/4), positive real part
    angles = rng.uniform(-math.pi / 4, math.pi / 4, dim - 1)
    return from_polar(PolarHC(10.0 ** rng.uniform(-2, 2), tuple(angles), ACW))


class TestPinnedN2:
    def test_general_square_of_one_plus_i(self):
        got = mul_coeffs_general(c(1, 1), c(1, 1), ACW)
        assert got.a0 == 0.0
        assert got.coeffs == (2.0,)
        assert close(got.thetas[0], math.pi / 2)
        assert vec_close(got.assembled.coeffs, (0, 2))

    def test_coordinate_square_of_one_plus_i(self):
        got = mul_coeffs_coordinate(c(1, 1), c(1, 1), ACW)
        assert close(got.thetas[0], math.pi / 2)
        assert vec_close(got.assembled.coeffs, (0, 2))
        assert vec_close(got.assembled.coeffs, algebra.mul(c(1, 1), c(1, 1)).coeffs)

    def test_identity_on_positive_domain(self):
        s = c(2.0, 3.0)
        for evaluate in MUL_EVALUATORS:
            got = evaluate(c(1, 0), s, ACW)
            assert vec_close(got.assembled.coeffs, s.coeffs)

    def test_absolute_value_discrepancy(self):
        # sqrt(a^2) = |a| makes the sign of the cross terms wrong off the
        # positive domain: classic (-1+i)^2 = -2i, the formulas give +2i
        got = mul_coeffs_coordinate(c(-1, 1), c(-1, 1), ACW)
        assert got.coeffs == (2.0,)
        assert vec_close(got.assembled.coeffs, (0, 2))
        classic = algebra.mul(c(-1, 1), c(-1, 1))
        assert vec_close(classic.coeffs, (0, -2))

    def test_division_of_2i_by_one_plus_i(self):
        got = div_coeffs_coordinate(c(0, 2), c(1, 1), ACW)
        assert vec_close(got.assembled.coeffs, (1, 1))

    def test_division_self_quotient(self):
        for evaluate in DIV_EVALUATORS:
            got = evaluate(c(2, 1), c(2, 1), ACW)
            assert vec_close(got.assembled.coeffs, (1, 0))


class TestPositiveDomainEquivalence:
    """Every evaluator matches the normative route on the restricted
    domain at N = 2 (established against the angle-addition oracle)."""

    def test_mul_matches_normative(self):
        rng = np.random.default_rng(61)
        for _ in range(300):
            s1, s2 = restricted_sample(rng, 2), restricted_sample(rng, 2)
            want = algebra.mul(s1, s2)
            for evaluate in MUL_EVALUATORS:
                got = evaluate(s1, s2, ACW).assembled
                assert vec_close(got.coeffs, want.coeffs, rel=1e-9)

    def test_div_matches_normative(self):
        rng = np.random.default_rng(62)
        for _ in range(300):
            s1, s2 = restricted_sample(rng, 2), restricted_sample(rng, 2)
            want = algebra.div(s1, s2)
            for evaluate in DIV_EVALUATORS:
                got = evaluate(s1, s2, ACW).assembled
                assert vec_close(got.coeffs, want.coeffs, rel=1e-9)


class TestStructure:
    def test_breakdown_shapes(self):
        got = mul_coeffs_general(c(1, 2, 3, 4), c(4, 3, 2, 1), ACW)
        assert isinstance(got, CoeffBreakdown)
        assert len(got.coeffs) == 3 and len(got.thetas) == 3

    def test_deterministic_bit_identical(self):
        s1, s2 = c(0.3, -1.2, 0.7), c(1.1, 0.4, -2.2)
        for evaluate in MUL_EVALUATORS + DIV_EVALUATORS:
            a = evaluate(s1, s2, ACW)
            b = evaluate(s1, s2, ACW)
            assert a == b

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            mul_coeffs_general(c(1, 2), c(1, 2, 3), ACW)

    def test_zero_divisor(self):
        for evaluate in DIV_EVALUATORS:
            with pytest.raises(ZeroDivisionError):
                evaluate(c(1, 2), c(0, 0), ACW)

    def test_theta_sign_split_between_div_cases(self):
        # general case sums the component arguments, coordinate case
        # subtracts them; both are intentional
        s1, s2 = restricted_sample(np.random.default_rng(8), 3), restricted_sample(
            np.random.default_rng(9), 3
        )
        from hyperspace.core import arguments

        t1, t2 = arguments(s1, ACW), arguments(s2, ACW)
        got_general = div_coeffs_general(s1, s2, ACW)
        got_coordinate = div_coeffs_coordinate(s1, s2, ACW)
        assert vec_close(got_general.thetas, tuple(a + b for a, b in zip(t1, t2)))
        assert vec_close(got_coordinate.thetas, tuple(a - b for a, b in zip(t1, t2)))


class TestMirrorSymmetry:
    """Clockwise formulas on index-reversed operands equal the index-reversed
    anticlockwise evaluation.

    The coordinate-case formulas mirror at every dimension.  The general-case
    correction brackets only mirror up to dimension 3: the printed clockwise
    bracket bounds collide with the anticlockwise structure from dimension 4
    on, and the evaluators follow the printed bounds rather than repairing
    them, so the departure is pinned below instead of patched.
    """

    @staticmethod
    def reverse_imag(s: CartesianHC) -> CartesianHC:
        return CartesianHC((s.coeffs[0],) + tuple(reversed(s.coeffs[1:])))

    def sample_pair(self, rng, dim):
        return (
            CartesianHC(tuple(rng.uniform(-2, 2, dim))),
            CartesianHC(tuple(rng.uniform(-2, 2, dim))),
        )

    @pytest.mark.parametrize(
        "evaluate", [mul_coeffs_coordinate, div_coeffs_coordinate]
    )
    def test_coordinate_mirror_all_dims(self, evaluate):
        rng = np.random.default_rng(63)
        for _ in range(100):
            s1, s2 = self.sample_pair(rng, int(rng.integers(2, 7)))
            acw = evaluate(s1, s2, ACW)
            cw = evaluate(self.reverse_imag(s1), self.reverse_imag(s2), CW)
            assert close(acw.a0, cw.a0, rel=1e-9)
            assert vec_close(tuple(reversed(acw.coeffs)), cw.coeffs, rel=1e-9)

    @pytest.mark.parametrize("evaluate", [mul_coeffs_general, div_coeffs_general])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_general_mirror_low_dims(self, evaluate, dim):
        rng = np.random.default_rng(65)
        for _ in range(100):
            s1, s2 = self.sample_pair(rng, dim)
            acw = evaluate(s1, s2, ACW)
            cw = evaluate(self.reverse_imag(s1), self.reverse_imag(s2), CW)
            assert close(acw.a0, cw.a0, rel=1e-9)
            assert vec_close(tuple(reversed(acw.coeffs)), cw.coeffs, rel=1e-9)

    def test_general_bracket_departs_from_mirror_at_dim4(self):
        # frozen: only the bracket-bearing coefficient pair differs
        s1 = c(0.5, -1.2, 0.8, 0.9)
        s2 = c(1.1, 0.3, -0.7, 0.4)
        acw = mul_coeffs_general(s1, s2, ACW)
        cw = mul_coeffs_general(self.reverse_imag(s1), self.reverse_imag(s2), CW)
        assert close(acw.a0, cw.a0, rel=1e-12)
        assert vec_close(tuple(reversed(acw.coeffs))[:2], cw.coeffs[:2], rel=1e-12)
        assert close(tuple(reversed(acw.coeffs))[2], -2.05407424069675, rel=1e-12)
        assert close(cw.coeffs[2], -1.6120372417307427, rel=1e-12)


class TestRestrictedN3Comparison:
    def test_comparison_against_normative_runs(self):
        # dim 3, restricted domain: the evaluators are compared against the
        # normative product; agreement status is the audit's to record, here
        # the routes must simply produce finite assembled values
        rng = np.random.default_rng(64)
        agree = 0
        total = 100
        for _ in range(total):
            s1, s2 = restricted_sample(rng, 3), restricted_sample(rng, 3)
            want = algebra.mul(s1, s2)
            got = mul_coeffs_general(s1, s2, ACW).assembled
            assert all(math.isfinite(v) for v in got.coeffs)
            if vec_close(got.coeffs, want.coeffs, rel=1e-9):
                agree += 1
        assert 0 <= agree <= total
