"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion (a failed assertion marks the criterion failed).
"""

import cmath
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from hyperspace import algebra
from hyperspace.algebra import mul_polar
from hyperspace.audit import AuditConfig, Domain, audit_law
from hyperspace.core import (
    CartesianHC,
    Orientation,
    PolarHC,
    conjugate,
    from_polar,
    modulus,
    to_polar,
)
from hyperspace.rotation import RotationChain, apply_plane_rotation, build_by_rotations, trajectory
from hyperspace.space3 import (
    Space3,
    Space3Polar,
    conj3_polar,
    from_polar3,
    j_pow,
    mul3,
    mul3_coeffs,
    to_polar3,
)

from util import angle_close, close, vec_close

ACW = Orientation.ANTICLOCKWISE
CW = Orientation.CLOCKWISE
TWO_PI = 2 * math.pi


def report(criterion: str, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS ({detail})")


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "hyperspace", *args], capture_output=True, text=True
    )


def test_criterion_1_n2_classical_equivalence():
    """mul/div/pow/roots at N = 2 track the textbook complex oracle."""
    rng = np.random.default_rng(10001)
    count = 10_000
    ops = rng.uniform(-1, 1, (count, 4)) * 10.0 ** rng.uniform(-2, 2, (count, 2)).repeat(2, axis=1)
    started = time.perf_counter()
    for row in ops:
        s1, s2 = CartesianHC((row[0], row[1])), CartesianHC((row[2], row[3]))
        z1, z2 = complex(row[0], row[1]), complex(row[2], row[3])
        got = algebra.mul(s1, s2)
        want = z1 * z2
        assert vec_close(got.coeffs, (want.real, want.imag), rel=1e-9)
        got = algebra.div(s1, s2)
        want = z1 / z2
        assert vec_close(got.coeffs, (want.real, want.imag), rel=1e-9)
        p1 = to_polar(s1)
        for n in range(-4, 9):
            got = from_polar(algebra.pow_int_polar(p1, n))
            want = z1**n
            assert vec_close(got.coeffs, (want.real, want.imag), rel=1e-9)
        phase = cmath.phase(z1) % TWO_PI
        for n in range(1, 7):
            mag = abs(z1) ** (1.0 / n)
            for m, chain in enumerate(algebra.nth_roots_polar(p1, n)):
                want = cmath.rect(mag, (phase + TWO_PI * m) / n)
                assert vec_close(from_polar(chain).coeffs, (want.real, want.imag), rel=1e-9)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"took {elapsed:.2f}s (budget 5s)"
    report("1 (N=2 classical equivalence)", f"{count} operand pairs, {elapsed:.2f}s")


def test_criterion_2_conversion_round_trips():
    """Cartesian->polar->Cartesian and polar->Cartesian->polar, dims 2-8."""
    count = 10_000
    started = time.perf_counter()
    for orientation in (ACW, CW):
        for dim in range(2, 9):
            rng = np.random.default_rng(20000 + dim * 2 + (orientation is CW))
            coeffs = rng.uniform(-1, 1, (count, dim)) * 10.0 ** rng.uniform(-2, 2, (count, 1))
            for row in coeffs:
                s = CartesianHC(tuple(row))
                assert vec_close(from_polar(to_polar(s, orientation)).coeffs, s.coeffs, rel=1e-9)
            full = rng.uniform(0, TWO_PI, count)
            rest = rng.uniform(-math.pi / 2, math.pi / 2, (count, dim - 2))
            mods = 10.0 ** rng.uniform(-2, 2, count)
            full_idx = 0 if orientation is ACW else dim - 2
            for i in range(count):
                angles = (
                    (full[i], *rest[i]) if orientation is ACW else (*rest[i], full[i])
                )
                p = PolarHC(mods[i], angles, orientation)
                q = to_polar(from_polar(p), orientation)
                assert close(q.modulus, p.modulus, rel=1e-9)
                for k, (a, b) in enumerate(zip(p.angles, q.angles)):
                    if k == full_idx:
                        assert angle_close(a, b, tol=1e-9)
                    else:
                        assert close(a, b, rel=1e-9, abs_eps=1e-9)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"took {elapsed:.2f}s (budget 10s)"
    report(
        "2 (conversion round trips)",
        f"dims 2-8, both orientations, {count} samples each way, {elapsed:.2f}s",
    )


def test_criterion_3_rotation_chain_oracle():
    """Chained in-plane rotations reproduce from_polar; isometry throughout."""
    count = 10_000
    for dim in range(2, 9):
        rng = np.random.default_rng(30000 + dim)
        full = rng.uniform(0, TWO_PI, count)
        rest = rng.uniform(-math.pi / 2, math.pi / 2, (count, dim - 2))
        mods = 10.0 ** rng.uniform(-2, 2, count)
        for i in range(count):
            p = PolarHC(mods[i], (full[i], *rest[i]), ACW)
            chain = RotationChain(
                p.modulus, tuple((k + 1, a) for k, a in enumerate(p.angles)), dim
            )
            points = trajectory(chain)
            assert vec_close(points[-1], from_polar(p).coeffs, rel=1e-12)
            for point in points:
                assert close(math.hypot(*point), p.modulus, rel=1e-12)
    # absorption: rotations in planes spanned by earlier axes fix later axes
    rng = np.random.default_rng(31000)
    for _ in range(1000):
        dim = int(rng.integers(3, 9))
        j = int(rng.integers(1, dim - 1))
        u = [0.0] * dim
        u[:j] = rng.uniform(-2, 2, j)
        if all(x == 0.0 for x in u):
            u[0] = 1.0
        angle = rng.uniform(-6, 6)
        for k in range(j + 1, dim):
            ek = tuple(1.0 if i == k else 0.0 for i in range(dim))
            assert apply_plane_rotation(ek, tuple(u), j, angle) == ek
    report(
        "3 (rotation-chain oracle)",
        f"dims 2-8 x {count} chains, norms within 1e-12, fixity exact",
    )


def test_criterion_4_normative_law_suite():
    """The laws the semantics guarantees pass at rate 1.0."""
    laws = (
        "add_commutative",
        "mul_commutative",
        "mul_associative",
        "conj_modulus",
        "demoivre",
        "roots_correct",
    )
    cfg = AuditConfig(dims=(2, 3, 4), samples=10_000)
    for law in laws:
        for dim in cfg.dims:
            result = audit_law(law, cfg, dim)
            assert result.pass_rate == 1.0, (law, dim, result.counterexample)
    # modulus multiplicativity at its tighter tolerance
    rng = np.random.default_rng(40001)
    for _ in range(10_000):
        dim = int(rng.integers(2, 9))
        s1 = CartesianHC(tuple(rng.uniform(-1, 1, dim) * 10.0 ** rng.uniform(-2, 2)))
        s2 = CartesianHC(tuple(rng.uniform(-1, 1, dim) * 10.0 ** rng.uniform(-2, 2)))
        assert close(modulus(algebra.mul(s1, s2)), modulus(s1) * modulus(s2), rel=1e-12)
    report(
        "4 (normative law suite)",
        f"{len(laws)} laws x dims 2-4 x {cfg.samples} samples, plus |s1*s2| = |s1||s2|",
    )


def test_criterion_5_distributivity_audit():
    """Distributivity holds on the plane, fails from dimension 3 on."""
    dim2 = audit_law("distributive", AuditConfig(dims=(2,), samples=10_000), 2)
    assert dim2.pass_rate == 1.0
    dim3 = audit_law("distributive", AuditConfig(dims=(3,), samples=1_000), 3)
    assert dim3.passes < dim3.samples
    assert dim3.counterexample is not None
    replay = audit_law("distributive", AuditConfig(dims=(3,), samples=1_000), 3)
    assert replay.counterexample == dim3.counterexample  # reproducible from seed
    # the exemplar violation, frozen from independent evaluation of both sides
    s = PolarHC(1.0, (0.0, math.pi / 2), ACW)
    t1, t2 = CartesianHC((1, 0, 0)), CartesianHC((0, 1, 0))
    lhs = algebra.mul(s, algebra.add(t1, t2))
    rhs = algebra.add(algebra.mul(s, t1), algebra.mul(s, t2))
    assert vec_close(lhs.coeffs, (0, 0, math.sqrt(2)), rel=1e-12)
    assert vec_close(rhs.coeffs, (0, 0, 2.0), rel=1e-12)
    assert not vec_close(lhs.coeffs, rhs.coeffs, rel=1e-9)
    report(
        "5 (distributivity audit)",
        f"dim 2 rate 1.0; dim 3 rate {dim3.pass_rate:.3f} with seeded counterexample; "
        "exemplar s*(t1+t2) = c[0,0,sqrt(2)] vs c[0,0,2]",
    )


def test_criterion_6_formula_agreement_audit():
    """Coefficient-formula agreement: exact on the positive plane, measured
    (with reproducible counterexamples) elsewhere."""
    positive = AuditConfig(
        dims=(2,), samples=10_000, domain=Domain.POSITIVE_RESTRICTED
    )
    result = audit_law("cartesian_mul_agreement", positive, 2)
    assert result.pass_rate == 1.0
    wide = AuditConfig(dims=(3,), samples=1_000)
    first = audit_law("cartesian_mul_agreement", wide, 3)
    second = audit_law("cartesian_mul_agreement", wide, 3)
    assert first.samples == 1_000 and first.counterexample is not None
    assert first.counterexample == second.counterexample
    assert 0.0 <= first.pass_rate < 1.0
    report(
        "6 (formula agreement audit)",
        f"dim 2 positive-restricted rate 1.0; dim 3 unrestricted rate "
        f"{first.pass_rate:.3f}, counterexample reproducible",
    )


def test_criterion_7_space3_suite():
    """The 3D system: unit cycle, conversions, embedding, and both product
    routes including their split on i*j."""
    for n in range(-8, 9):
        assert j_pow(n) == j_pow(n % 4)
    rng = np.random.default_rng(70001)
    for _ in range(10_000):
        a, b, c = rng.uniform(-1, 1, 3) * 10.0 ** rng.uniform(-2, 2)
        s = Space3(a, b, c)
        assert vec_close(from_polar3(to_polar3(s)).coeffs, s.coeffs, rel=1e-9)
        t = Space3(*(rng.uniform(-1, 1, 3) * 10.0 ** rng.uniform(-2, 2)))
        assert close(modulus(mul3(s, t)), modulus(s) * modulus(t), rel=1e-12)
        p = to_polar3(s)
        identity = from_polar3(mul_polar(p, conj3_polar(p)))
        assert vec_close(identity.coeffs, (modulus(s) ** 2, 0, 0), rel=1e-9)
        canonical = Space3Polar(
            10.0 ** rng.uniform(-2, 2),
            rng.uniform(1e-6, math.pi - 1e-6),
            rng.uniform(1e-6, TWO_PI - 1e-6),
        )
        q = to_polar3(from_polar3(canonical))
        assert close(q.modulus, canonical.modulus, rel=1e-9)
        assert close(q.theta, canonical.theta, rel=1e-9, abs_eps=1e-9)
        assert close(q.phi, canonical.phi, rel=1e-9, abs_eps=1e-9)
    for _ in range(10_000):
        a1, a2 = rng.uniform(-3, 3, 2)
        b1, b2 = rng.uniform(0, 3, 2)
        got = mul3(Space3(a1, b1, 0), Space3(a2, b2, 0))
        want = complex(a1, b1) * complex(a2, b2)
        assert vec_close(got.coeffs, (want.real, want.imag, 0), rel=1e-9)
    wide = AuditConfig(dims=(3,), samples=1_000)
    first = audit_law("space3_mul_agreement", wide, 3)
    second = audit_law("space3_mul_agreement", wide, 3)
    assert first.counterexample is not None
    assert first.counterexample == second.counterexample
    # the i*j split, both sides frozen from direct evaluation
    i_unit, j_unit = Space3(0, 1, 0), Space3(0, 0, 1)
    coeff_route = mul3_coeffs(i_unit, j_unit).assembled
    exponent_route = mul3(i_unit, j_unit)
    assert vec_close(coeff_route.coeffs, (0, 0, -1), abs_eps=1e-12)
    assert vec_close(exponent_route.coeffs, (-1, 0, 0), abs_eps=1e-12)
    report(
        "7 (3D space suite)",
        "j-cycle exact; 1e4 round trips/moduli/conjugates; classic embedding; "
        "i*j split captured (-j vs -1)",
    )


def test_criterion_8_duality_lift():
    """Appending a coefficient grows the modulus Pythagorean-style and leaves
    the existing anticlockwise angle chain alone."""
    from hyperspace.duality import lift

    rng = np.random.default_rng(80001)
    for _ in range(10_000):
        dim = int(rng.integers(2, 8))
        s = CartesianHC(tuple(rng.uniform(-1, 1, dim) * 10.0 ** rng.uniform(-2, 2)))
        if modulus(s) == 0.0:
            continue
        a = rng.uniform(-10, 10)
        grown = lift(s, a)
        assert close(modulus(grown) ** 2, modulus(s) ** 2 + a * a, rel=1e-12)
        base, lifted = to_polar(s, ACW), to_polar(grown, ACW)
        assert vec_close(lifted.angles[: dim - 1], base.angles, rel=1e-9)
        assert close(lifted.angles[-1], math.atan2(a, modulus(s)), rel=1e-9, abs_eps=1e-12)
    with pytest.raises(ZeroDivisionError):
        lift(CartesianHC((0, 0)), 1.0)
    report("8 (duality lift)", "1e4 lifts, dims 2-7; zero-modulus lift rejected")


def test_criterion_9_cli():
    """Worked examples byte-stable; diagnostics carry positions; audit JSON
    deterministic up to its timestamp."""
    for expr, expected in [
        ("c[1,1] * c[1,1]", "c[0,2]\n"),
        ("abs(c[3,4])", "5\n"),
        ("lift(c[3,4], 12)", "c[3,4,12]\n"),
    ]:
        first, second = run_cli("eval", expr), run_cli("eval", expr)
        assert first.returncode == 0 and first.stdout == expected
        assert first.stdout == second.stdout and first.stderr == second.stderr
    bad = run_cli("eval", "roots(c[1,1], )")
    assert bad.returncode == 1 and "offset" in bad.stderr
    args = ("audit", "--samples", "80", "--dim", "2", "--dim", "3", "--seed", "2024")
    first, second = run_cli(*args), run_cli(*args)

    def strip(text: str) -> str:
        return "\n".join(l for l in text.splitlines() if "generated_at" not in l)

    assert strip(first.stdout) == strip(second.stdout)
    assert json.loads(first.stdout)["config"]["seed"] == 2024
    report("9 (CLI)", "eval examples byte-stable; exit 1 with offsets; audit JSON stable")
