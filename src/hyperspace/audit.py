"""Randomized audit of claimed algebraic identities.

Every law draws seeded random operands, evaluates both sides of the claimed
identity and tallies agreement within a tolerance.  Laws split into two
kinds:

* normative laws are invariants of the angle-addition semantics itself
  (commutativity, angle-level associativity, the conjugate identity, de
  Moivre power-vs-fold, root correctness, agreement with classic complex
  arithmetic at N = 2).  These must pass at rate 1.0; a failure is a bug.
* hypothesis laws are claims the system does not actually guarantee:
  distributivity over coordinate sums for N >= 3, and agreement of the
  expanded coefficient formulas with the normative route.  These are
  *measured*; failures are captured as reproducible counterexamples, never
  patched.

Determinism contract: the generator state for each sample is derived from
(seed, law id, dim, sample index), so per-sample results are independent of
evaluation order and stable under parallel execution.  Operands that are
nearly singular (tiny modulus, or a canonical angle within 1e-8 of a range
boundary) are redrawn from the same stream and counted, separating law
violations from float pathology near the coordinate-chart seams.
"""

from __future__ import annotations

import cmath
import datetime as _dt
import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._version import VERSION
from .core import (
    TWO_PI,
    CartesianHC,
    DEFAULT_TOLERANCE,
    Orientation,
    PolarHC,
    Space3,
    Space3Polar,
    Tolerance,
    approx_eq,
    canonical_ranges,
    conjugate,
    from_polar,
    modulus,
    to_dict,
    to_polar,
)
from . import algebra, coeff_formulas, space3

_ACW = Orientation.ANTICLOCKWISE
_SINGULAR_MODULUS = 1e-8
_ANGLE_MARGIN = 1e-8
_MAX_REDRAWS = 128


class Domain(Enum):
    """Operand sampling domain."""

    UNRESTRICTED = "unrestricted"
    POSITIVE_RESTRICTED = "positive_restricted"


@dataclass(frozen=True, slots=True)
class AuditConfig:
    dims: tuple[int, ...] = (2, 3, 4)
    samples: int = 1000
    seed: int = 42
    tolerance: Tolerance = DEFAULT_TOLERANCE
    domain: Domain = Domain.UNRESTRICTED

    def __post_init__(self) -> None:
        dims = tuple(int(d) for d in self.dims)
        if not dims or any(d < 2 for d in dims):
            raise ValueError(f"dims must be a nonempty list of ints >= 2, got {dims}")
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError(f"seed must fit in 64 unsigned bits, got {self.seed}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "samples", int(self.samples))
        object.__setattr__(self, "seed", int(self.seed))


@dataclass(frozen=True, slots=True)
class LawResult:
    """Tally for one (law, dim) cell.

    ``dim`` echoes the requested dimension; laws with an intrinsic dimension
    (the N = 2 classic check, the 3D laws) ignore it for operand
    construction but still derive their sample streams from it.
    """

    law: str
    dim: int
    samples: int
    passes: int
    max_dev: float
    counterexample: dict | None
    resamples: int

    @property
    def pass_rate(self) -> float:
        return self.passes / self.samples


@dataclass(frozen=True, slots=True)
class AuditReport:
    config: AuditConfig
    laws: tuple[str, ...]
    results: tuple[LawResult, ...]
    version: str
    generated_at: str


# ---------------------------------------------------------------------------
# sampling

def _sample_rng(seed: int, law: str, dim: int, index: int) -> np.random.Generator:
    ss = np.random.SeedSequence((seed, _LAW_CODES[law], dim, index))
    return np.random.default_rng(ss)


def _near_singular(s: CartesianHC) -> bool:
    # ccw for N-dimensional operands; 3D operands keep their s3 chart
    p = to_polar(s, _ACW)
    if p.modulus < _SINGULAR_MODULUS:
        return True
    ranges = canonical_ranges(p.orientation, p.dim)
    return any(
        a - lo < _ANGLE_MARGIN or hi - a < _ANGLE_MARGIN
        for a, (lo, hi, _) in zip(p.angles, ranges)
    )


def _draw_cartesian(rng: np.random.Generator, dim: int, domain: Domain) -> CartesianHC:
    mag = 10.0 ** rng.uniform(-2.0, 2.0)
    if domain is Domain.UNRESTRICTED:
        return CartesianHC(tuple(rng.uniform(-1.0, 1.0, dim) * mag))
    angles = rng.uniform(-math.pi / 4, math.pi / 4, dim - 1)
    return from_polar(PolarHC(mag, tuple(angles), _ACW))


def _draw_space3(rng: np.random.Generator, dim: int, domain: Domain) -> Space3:
    mag = 10.0 ** rng.uniform(-2.0, 2.0)
    if domain is Domain.UNRESTRICTED:
        a, b, c = rng.uniform(-1.0, 1.0, 3) * mag
        return Space3(a, b, c)
    theta = rng.uniform(0.0, math.pi / 4)
    phi = rng.uniform(-math.pi / 4, math.pi / 4)
    return from_polar(Space3Polar(mag, theta, phi % TWO_PI))


def _draw_operands(
    rng: np.random.Generator, dim: int, domain: Domain, count: int, draw=_draw_cartesian
) -> tuple[list[CartesianHC], int]:
    out: list[CartesianHC] = []
    redraws = 0
    for _ in range(count):
        for attempt in range(_MAX_REDRAWS):
            s = draw(rng, dim, domain)
            if not _near_singular(s):
                break
            redraws += 1
        else:
            raise RuntimeError("exhausted redraws for a non-singular operand")
        out.append(s)
    return out, redraws


# ---------------------------------------------------------------------------
# comparison

def _deviation(x: tuple[float, ...], y: tuple[float, ...]) -> float:
    scale = max(1e-30, max(abs(v) for v in x + y))
    return max(abs(a - b) for a, b in zip(x, y)) / scale


def _compare(lhs: CartesianHC, rhs: CartesianHC, tol: Tolerance) -> tuple[bool, float]:
    return approx_eq(lhs, rhs, tol), _deviation(lhs.coeffs, rhs.coeffs)


def _cex(operands, lhs, rhs, **extra) -> dict:
    payload = {
        "operands": [to_dict(s) for s in operands],
        "lhs": to_dict(lhs),
        "rhs": to_dict(rhs),
    }
    payload.update(extra)
    return payload


def _judge(pairs, tol, resamples, operands):
    """Law verdict over (lhs, rhs, tags) pairs compared in order: the first
    pair out of tolerance is the counterexample, carrying its tags."""
    dev = 0.0
    for lhs, rhs, tags in pairs:
        ok, d = _compare(lhs, rhs, tol)
        dev = max(dev, d)
        if not ok:
            return False, dev, resamples, _cex(operands, lhs, rhs, **tags)
    return True, dev, resamples, None


# ---------------------------------------------------------------------------
# law evaluators: (rng, dim, tol, domain) -> (ok, dev, resamples, counterexample)

def _law_add_commutative(rng, dim, tol, domain):
    (s1, s2), rs = _draw_operands(rng, dim, domain, 2)
    lhs, rhs = algebra.add(s1, s2), algebra.add(s2, s1)
    return _judge([(lhs, rhs, {})], tol, rs, [s1, s2])


def _law_add_associative(rng, dim, tol, domain):
    (s1, s2, s3), rs = _draw_operands(rng, dim, domain, 3)
    lhs = algebra.add(algebra.add(s1, s2), s3)
    rhs = algebra.add(s1, algebra.add(s2, s3))
    return _judge([(lhs, rhs, {})], tol, rs, [s1, s2, s3])


def _law_mul_commutative(rng, dim, tol, domain):
    (s1, s2), rs = _draw_operands(rng, dim, domain, 2)
    lhs, rhs = algebra.mul(s1, s2), algebra.mul(s2, s1)
    return _judge([(lhs, rhs, {})], tol, rs, [s1, s2])


def _law_mul_associative(rng, dim, tol, domain):
    # Composition stays at the angle level, where products associate; the
    # conversion boundaries (operands in, result out) are part of the test.
    ops, rs = _draw_operands(rng, dim, domain, 3)
    p1, p2, p3 = (to_polar(s, _ACW) for s in ops)
    lhs = from_polar(algebra.mul_polar(algebra.mul_polar(p1, p2), p3))
    rhs = from_polar(algebra.mul_polar(p1, algebra.mul_polar(p2, p3)))
    return _judge([(lhs, rhs, {})], tol, rs, ops)


def _law_distributive(rng, dim, tol, domain):
    (s, t1, t2), rs = _draw_operands(rng, dim, domain, 3)
    lhs = algebra.mul(s, algebra.add(t1, t2))
    rhs = algebra.add(algebra.mul(s, t1), algebra.mul(s, t2))
    return _judge([(lhs, rhs, {})], tol, rs, [s, t1, t2])


def _law_conj_modulus(rng, dim, tol, domain):
    (s,), rs = _draw_operands(rng, dim, domain, 1)
    lhs = algebra.mul(s, conjugate(s))
    r = modulus(s)
    rhs = CartesianHC((r * r,) + (0.0,) * (dim - 1))
    return _judge([(lhs, rhs, {})], tol, rs, [s])


def _law_n2_classic_equiv(rng, dim, tol, domain):
    # Always checked at N = 2 against the textbook complex oracle.
    (s1, s2), rs = _draw_operands(rng, 2, domain, 2)
    z1 = complex(s1.coeffs[0], s1.coeffs[1])
    z2 = complex(s2.coeffs[0], s2.coeffs[1])
    checks: list[tuple[CartesianHC, CartesianHC, dict]] = []

    def classic(z: complex) -> CartesianHC:
        return CartesianHC((z.real, z.imag))

    checks.append((algebra.mul(s1, s2), classic(z1 * z2), {"check": "mul"}))
    checks.append((algebra.div(s1, s2), classic(z1 / z2), {"check": "div"}))
    n_pow = int(rng.integers(-4, 9))
    checks.append((algebra.pow_int(s1, n_pow), classic(z1**n_pow), {"check": f"pow {n_pow}"}))
    n_root = int(rng.integers(1, 7))
    phase = cmath.phase(z1) % TWO_PI
    root_mod = abs(z1) ** (1.0 / n_root)
    for m, root in enumerate(algebra.nth_roots(s1, n_root)):
        oracle = classic(cmath.rect(root_mod, (phase + TWO_PI * m) / n_root))
        checks.append((root, oracle, {"check": f"root {m}/{n_root}"}))
    return _judge(checks, tol, rs, [s1, s2])


def _law_roots_correct(rng, dim, tol, domain):
    # Roots power back through their own chains (angle level); the list of
    # coordinate projections must be pairwise distinct.
    (s,), rs = _draw_operands(rng, dim, domain, 1)
    n = int(rng.integers(1, 7))
    chains = algebra.nth_roots_polar(to_polar(s, _ACW), n)
    roots = [from_polar(p) for p in chains]
    dev = 0.0
    for m, chain in enumerate(chains):
        back = from_polar(algebra.pow_int_polar(chain, n))
        ok, d = _compare(back, s, tol)
        dev = max(dev, d)
        if not ok:
            return False, dev, rs, _cex([s], back, s, root_index=m, order=n)
    for i in range(n):
        for j in range(i + 1, n):
            if approx_eq(roots[i], roots[j], tol):
                return False, dev, rs, _cex(
                    [s], roots[i], roots[j], note=f"roots {i} and {j} coincide"
                )
    return True, dev, rs, None


def _law_demoivre(rng, dim, tol, domain):
    (s,), rs = _draw_operands(rng, dim, domain, 1)
    n = int(rng.integers(0, 9))
    p = to_polar(s, _ACW)
    lhs = algebra.pow_int(s, n)
    acc = PolarHC(1.0, (0.0,) * (dim - 1), _ACW)
    for _ in range(n):
        acc = algebra.mul_polar(acc, p)
    rhs = from_polar(acc)
    return _judge([(lhs, rhs, {"order": n})], tol, rs, [s])


def _agreement(rng, dim, tol, domain, normative, routes, draw=_draw_cartesian):
    """Two operands through the normative operation and every formula route."""
    (s1, s2), rs = _draw_operands(rng, dim, domain, 2, draw)
    nm = normative(s1, s2)
    pairs = [(route(s1, s2).assembled, nm, {"route": label}) for label, route in routes]
    return _judge(pairs, tol, rs, [s1, s2])


def _law_cartesian_mul_agreement(rng, dim, tol, domain):
    routes = [
        ("general", lambda a, b: coeff_formulas.mul_coeffs_general(a, b, _ACW)),
        ("coordinate", lambda a, b: coeff_formulas.mul_coeffs_coordinate(a, b, _ACW)),
    ]
    return _agreement(rng, dim, tol, domain, algebra.mul, routes)


def _law_cartesian_div_agreement(rng, dim, tol, domain):
    routes = [
        ("general", lambda a, b: coeff_formulas.div_coeffs_general(a, b, _ACW)),
        ("coordinate", lambda a, b: coeff_formulas.div_coeffs_coordinate(a, b, _ACW)),
    ]
    return _agreement(rng, dim, tol, domain, algebra.div, routes)


def _law_space3_mul_agreement(rng, dim, tol, domain):
    routes = [("coefficients", space3.mul3_coeffs)]
    return _agreement(rng, 3, tol, domain, space3.mul3, routes, _draw_space3)


def _law_space3_div_agreement(rng, dim, tol, domain):
    routes = [("coefficients", space3.div3_coeffs)]
    return _agreement(rng, 3, tol, domain, space3.div3, routes, _draw_space3)


def _law_space3_conj_modulus(rng, dim, tol, domain):
    (s,), rs = _draw_operands(rng, 3, domain, 1, _draw_space3)
    p = space3.to_polar3(s)
    lhs = space3.from_polar3(space3.mul3_polar(p, space3.conj3_polar(p)))
    r = space3.modulus3(s)
    rhs = Space3(r * r, 0.0, 0.0)
    return _judge([(lhs, rhs, {})], tol, rs, [s])


_EVALUATORS = {
    "add_commutative": _law_add_commutative,
    "add_associative": _law_add_associative,
    "mul_commutative": _law_mul_commutative,
    "mul_associative": _law_mul_associative,
    "distributive": _law_distributive,
    "conj_modulus": _law_conj_modulus,
    "n2_classic_equiv": _law_n2_classic_equiv,
    "roots_correct": _law_roots_correct,
    "demoivre": _law_demoivre,
    "cartesian_mul_agreement": _law_cartesian_mul_agreement,
    "cartesian_div_agreement": _law_cartesian_div_agreement,
    "space3_mul_agreement": _law_space3_mul_agreement,
    "space3_div_agreement": _law_space3_div_agreement,
    "space3_conj_modulus": _law_space3_conj_modulus,
}

LAW_IDS: tuple[str, ...] = tuple(_EVALUATORS)
_LAW_CODES = {law: i for i, law in enumerate(LAW_IDS)}

NORMATIVE_LAWS = frozenset(
    {
        "add_commutative",
        "add_associative",
        "mul_commutative",
        "mul_associative",
        "conj_modulus",
        "n2_classic_equiv",
        "roots_correct",
        "demoivre",
        "space3_conj_modulus",
    }
)
HYPOTHESIS_LAWS = frozenset(LAW_IDS) - NORMATIVE_LAWS


def audit_law(law: str, cfg: AuditConfig, dim: int | None = None) -> LawResult:
    """Tally one law over cfg.samples seeded draws at one dimension."""
    if law not in _EVALUATORS:
        raise ValueError(f"unknown law id: {law!r} (known: {', '.join(LAW_IDS)})")
    d = int(dim) if dim is not None else cfg.dims[0]
    evaluate = _EVALUATORS[law]
    passes = 0
    max_dev = 0.0
    resamples = 0
    first_cex: dict | None = None
    for index in range(cfg.samples):
        rng = _sample_rng(cfg.seed, law, d, index)
        ok, dev, redraws, cex = evaluate(rng, d, cfg.tolerance, cfg.domain)
        resamples += redraws
        max_dev = max(max_dev, dev)
        if ok:
            passes += 1
        elif first_cex is None:
            first_cex = dict(cex, sample_index=index)
    return LawResult(law, d, cfg.samples, passes, max_dev, first_cex, resamples)


def run_audit(cfg: AuditConfig, laws: list[str] | None = None) -> AuditReport:
    """One LawResult per (law, dim); deterministic for a fixed config."""
    chosen = tuple(laws) if laws is not None else LAW_IDS
    unknown = [law for law in chosen if law not in _EVALUATORS]
    if unknown:
        raise ValueError(f"unknown law ids: {unknown}")
    results = tuple(
        audit_law(law, cfg, dim) for law in chosen for dim in cfg.dims
    )
    stamp = _dt.datetime.now(_dt.timezone.utc).isoformat(timespec="seconds")
    return AuditReport(cfg, chosen, results, VERSION, stamp)


def has_failures(report: AuditReport) -> bool:
    return any(r.passes < r.samples for r in report.results)


def report_to_dict(report: AuditReport) -> dict:
    cfg = report.config
    return {
        "config": {
            "dims": list(cfg.dims),
            "samples": cfg.samples,
            "seed": cfg.seed,
            "tolerance": {"abs_eps": cfg.tolerance.abs_eps, "rel_eps": cfg.tolerance.rel_eps},
            "domain": cfg.domain.value,
            "laws": list(report.laws),
        },
        "results": [
            {
                "law": r.law,
                "dim": r.dim,
                "samples": r.samples,
                "passes": r.passes,
                "max_dev": r.max_dev,
                "resamples": r.resamples,
                "counterexample": r.counterexample,
            }
            for r in report.results
        ],
        "version": report.version,
        "generated_at": report.generated_at,
    }


def report_to_json(report: AuditReport) -> str:
    return json.dumps(report_to_dict(report), indent=2)


def report_to_markdown(report: AuditReport) -> str:
    cfg = report.config
    lines = [
        "# Law audit",
        "",
        f"- samples per (law, dim): {cfg.samples}",
        f"- seed: {cfg.seed}",
        f"- domain: {cfg.domain.value}",
        f"- tolerance: abs {cfg.tolerance.abs_eps:g}, rel {cfg.tolerance.rel_eps:g}",
        f"- version: {report.version}",
        "",
        "| law | dim | kind | passes | rate | max dev | counterexample |",
        "|---|---|---|---|---|---|---|",
    ]
    for r in report.results:
        kind = "normative" if r.law in NORMATIVE_LAWS else "hypothesis"
        cex = "none" if r.counterexample is None else f"sample {r.counterexample['sample_index']}"
        lines.append(
            f"| {r.law} | {r.dim} | {kind} | {r.passes}/{r.samples} "
            f"| {r.pass_rate:.4f} | {r.max_dev:.3e} | {cex} |"
        )
    lines.append("")
    return "\n".join(lines)
