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

Each law is declared once, in the ``_LAWS`` table (operand count, fixed
dimension, draw, normative flag); ``audit_law`` alone draws the operands,
evaluates the law's ``(lhs, rhs, tags)`` claims and judges them in order.

Determinism contract: each sample's stream is exactly numpy's
``SeedSequence((seed, law code, dim, sample index))`` seeding a PCG64, the
law code being the law's index in ``_LAWS``, so per-sample results are
independent of evaluation order and stable under parallel execution.
``_sample_rng`` builds that generator for one sample; ``audit_law`` derives
the states of a whole cell at a time (``_seed_words``) and takes each
sample's operands from one draw call.  Operands that are nearly singular
(tiny modulus, or a canonical angle within 1e-8 of a range boundary) are
redrawn from the same stream and counted, separating law violations from
float pathology near the coordinate-chart seams.
"""

from __future__ import annotations

import cmath
import datetime as _dt
import json
import math
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import TYPE_CHECKING, Callable

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
    canonical_ranges,
    closeness,
    conjugate,
    from_polar,
    modulus,
    to_dict,
    to_polar,
)
from . import algebra, coeff_formulas, space3

if TYPE_CHECKING:  # for the annotations; the samplers load numpy themselves
    import numpy as np

_ACW = Orientation.ANTICLOCKWISE
_SINGULAR_MODULUS = 1e-8
_ANGLE_MARGIN = 1e-8
_MAX_REDRAWS = 128


class Domain(Enum):
    """Operand sampling domain."""

    UNRESTRICTED = "unrestricted"
    POSITIVE_RESTRICTED = "positive_restricted"

    @classmethod
    def _missing_(cls, value):
        known = ", ".join(d.value for d in cls)
        raise ValueError(f"unknown domain: {value!r} (known: {known})")


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
        if len(set(dims)) < len(dims):
            raise ValueError(f"dims must not repeat, got {dims}")
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError(f"seed must fit in 64 unsigned bits, got {self.seed}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "domain", Domain(self.domain))
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
    """The generator one sample starts from: numpy's own seeding of its
    stream, which :func:`_streams` reproduces a cell at a time."""
    # numpy loads on the first draw, so importing this module (and with it
    # the hsc front end) does not pay for it
    import numpy as np

    ss = np.random.SeedSequence((seed, _LAW_CODES[law], dim, index))
    return np.random.default_rng(ss)


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx) and
# the 128-bit PCG multiplier (O'Neill, "PCG: A Family of Simple Fast
# Space-Efficient Statistically Good Algorithms for Random Number
# Generation", HMC-CS-2014-0905)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1
_POOL = 4
_BLOCK = 1024  # samples whose seeds are derived at once


def _seed_words(seed: int, code: int, dim: int, i0: int, m: int) -> list[tuple[int, ...]]:
    """PCG64 seed words of samples i0 ... i0+m-1 of one cell: for each index,
    ``SeedSequence((seed, code, dim, index)).generate_state(4, uint64)``,
    computed as uint32 array arithmetic over all m indices at once."""
    import numpy as np

    u32 = np.uint32

    def words(n: int) -> list[int]:  # an int's little-endian 32-bit words; 0 is one word
        return [n & _MASK32] + (words(n >> 32) if n >> 32 else [])

    if not 0 <= i0 <= i0 + m <= 2**32:
        raise ValueError("sample indices must fit in 32 bits")
    entropy = [np.full(m, w, u32) for w in words(seed) + words(code) + words(dim)]
    entropy.append(np.arange(i0, i0 + m, dtype=np.int64).astype(u32))

    def hasher(const: int, mult: int):  # a hash whose constant steps per call
        def hash_(v):
            nonlocal const
            v = v ^ u32(const)
            const = const * mult & _MASK32
            v = v * u32(const)
            return v ^ (v >> u32(16))
        return hash_

    def mix(x, y):
        r = u32(_MIX_L) * x - u32(_MIX_R) * y
        return r ^ (r >> u32(16))

    hashmix = hasher(_INIT_A, _MULT_A)
    zero = np.zeros(m, u32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for extra in entropy[_POOL:]:  # a seed of two words leaves the index over
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(extra))
    out = hasher(_INIT_B, _MULT_B)
    state = [out(pool[k % _POOL]).astype(np.uint64) for k in range(2 * _POOL)]
    # uint32 pairs, low word first, as uint64 by arithmetic (any byte order)
    pairs = [(state[k] | state[k + 1] << np.uint64(32)).tolist() for k in range(0, 2 * _POOL, 2)]
    return list(zip(*pairs))


def _streams(seed: int, law: str, dim: int, samples: int):
    """One generator, set in turn to the start of every sample's stream of
    one cell: the stream :func:`_sample_rng` gives for that index."""
    import numpy as np

    bitgen = np.random.PCG64(0)
    rng = np.random.Generator(bitgen)
    for i0 in range(0, samples, _BLOCK):
        m = min(_BLOCK, samples - i0)
        for s0, s1, q0, q1 in _seed_words(seed, _LAW_CODES[law], dim, i0, m):
            # PCG64 seeding: from state 0 with an odd increment, step, add the
            # initial state, step
            inc = ((q0 << 64 | q1) << 1 | 1) & _MASK128
            state = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _MASK128
            bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                            "has_uint32": 0, "uinteger": 0}
            yield rng


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


def _uniform(lo: float, hi: float, u: float) -> float:
    """numpy's ``Generator.uniform(lo, hi)`` of the standard double ``u``."""
    return lo + (hi - lo) * u


# A draw builds one operand from its attempt's uniform doubles: the
# magnitude, then dim coefficients (unrestricted) or the angles (positive).

def _draw_cartesian(u: list[float], dim: int, domain: Domain) -> CartesianHC:
    mag = 10.0 ** _uniform(-2.0, 2.0, u[0])
    if domain is Domain.UNRESTRICTED:
        return CartesianHC(tuple(_uniform(-1.0, 1.0, x) * mag for x in u[1:]))
    angles = tuple(_uniform(-math.pi / 4, math.pi / 4, x) for x in u[1:])
    return from_polar(PolarHC(mag, angles, _ACW))


def _draw_space3(u: list[float], dim: int, domain: Domain) -> Space3:
    mag = 10.0 ** _uniform(-2.0, 2.0, u[0])
    if domain is Domain.UNRESTRICTED:
        return Space3(*(_uniform(-1.0, 1.0, x) * mag for x in u[1:]))
    theta = _uniform(0.0, math.pi / 4, u[1])
    phi = _uniform(-math.pi / 4, math.pi / 4, u[2])
    return from_polar(Space3Polar(mag, theta, phi % TWO_PI))


def _draw_operands(
    rng: np.random.Generator, law: _Law, dim: int, domain: Domain
) -> tuple[list[CartesianHC], int]:
    """The law's operands, from one ``rng.random`` call of w doubles per
    operand.  An attempt that is near singular is redrawn from w more, so
    the stream ends where drawing attempt by attempt would leave it."""
    d = law.dim or dim
    w = d + (domain is Domain.UNRESTRICTED)  # mag + d coefficients, or mag + d-1 angles
    u = rng.random(law.operands * w).tolist()
    pos = 0
    out: list[CartesianHC] = []
    redraws = 0
    for _ in range(law.operands):
        for _ in range(_MAX_REDRAWS):
            if pos == len(u):
                u += rng.random(w).tolist()
            s = law.draw(u[pos : pos + w], d, domain)
            pos += w
            if not _near_singular(s):
                break
            redraws += 1
        else:
            raise RuntimeError("exhausted redraws for a non-singular operand")
        out.append(s)
    return out, redraws


# ---------------------------------------------------------------------------
# comparison

class _Distinct(dict):
    """Tags of a claim that its two sides differ."""


def _judge(claims, tol: Tolerance) -> tuple[float, tuple | None]:
    """Max deviation and the first failing ``(lhs, rhs, tags)`` claim, or None.
    A claim holds when its sides agree within ``tol``; one tagged ``_Distinct``
    holds when they do not, and adds nothing to the deviation."""
    dev = 0.0
    for lhs, rhs, tags in claims:
        ok, gap = closeness(lhs, rhs, tol)
        if isinstance(tags, _Distinct):
            ok = not ok
        else:
            dev = max(dev, gap)
        if not ok:
            return dev, (lhs, rhs, tags)
    return dev, None


# ---------------------------------------------------------------------------
# laws: (rng, *operands) -> [(lhs, rhs, tags), ...]; a law draws from rng only
# after its operands are drawn

def _law_add_commutative(rng, s1, s2):
    lhs, rhs = algebra.add(s1, s2), algebra.add(s2, s1)
    return [(lhs, rhs, {})]


def _law_add_associative(rng, s1, s2, s3):
    lhs = algebra.add(algebra.add(s1, s2), s3)
    rhs = algebra.add(s1, algebra.add(s2, s3))
    return [(lhs, rhs, {})]


def _law_mul_commutative(rng, s1, s2):
    lhs, rhs = algebra.mul(s1, s2), algebra.mul(s2, s1)
    return [(lhs, rhs, {})]


def _law_mul_associative(rng, *operands):
    # Composition stays at the angle level, where products associate; the
    # conversion boundaries (operands in, result out) are part of the test.
    p1, p2, p3 = (to_polar(s, _ACW) for s in operands)
    lhs = from_polar(algebra.mul_polar(algebra.mul_polar(p1, p2), p3))
    rhs = from_polar(algebra.mul_polar(p1, algebra.mul_polar(p2, p3)))
    return [(lhs, rhs, {})]


def _law_distributive(rng, s, t1, t2):
    lhs = algebra.mul(s, algebra.add(t1, t2))
    rhs = algebra.add(algebra.mul(s, t1), algebra.mul(s, t2))
    return [(lhs, rhs, {})]


def _law_conj_modulus(rng, s):
    lhs = algebra.mul(s, conjugate(s))
    r = modulus(s)
    rhs = CartesianHC((r * r,) + (0.0,) * (s.dim - 1))
    return [(lhs, rhs, {})]


def _law_n2_classic_equiv(rng, s1, s2):
    # Always checked at N = 2 against the textbook complex oracle.
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
    return checks


def _law_roots_correct(rng, s):
    # Roots power back through their own chains (angle level); the list of
    # coordinate projections must be pairwise distinct.
    n = int(rng.integers(1, 7))
    chains = algebra.nth_roots_polar(to_polar(s, _ACW), n)
    roots = [from_polar(p) for p in chains]
    backs = [
        (from_polar(algebra.pow_int_polar(chain, n)), s, {"root_index": m, "order": n})
        for m, chain in enumerate(chains)
    ]
    return backs + [
        (roots[i], roots[j], _Distinct(note=f"roots {i} and {j} coincide"))
        for i in range(n)
        for j in range(i + 1, n)
    ]


def _law_demoivre(rng, s):
    n = int(rng.integers(0, 9))
    p = to_polar(s, _ACW)
    lhs = algebra.pow_int(s, n)
    acc = PolarHC(1.0, (0.0,) * (p.dim - 1), _ACW)
    for _ in range(n):
        acc = algebra.mul_polar(acc, p)
    rhs = from_polar(acc)
    return [(lhs, rhs, {"order": n})]


def _agreement(normative, routes, rng, s1, s2):
    """Two operands through the normative operation and every formula route."""
    nm = normative(s1, s2)
    return [(route(s1, s2).assembled, nm, {"route": label}) for label, route in routes]


_law_cartesian_mul_agreement = partial(_agreement, algebra.mul, [
    ("general", lambda a, b: coeff_formulas.mul_coeffs_general(a, b, _ACW)),
    ("coordinate", lambda a, b: coeff_formulas.mul_coeffs_coordinate(a, b, _ACW)),
])
_law_cartesian_div_agreement = partial(_agreement, algebra.div, [
    ("general", lambda a, b: coeff_formulas.div_coeffs_general(a, b, _ACW)),
    ("coordinate", lambda a, b: coeff_formulas.div_coeffs_coordinate(a, b, _ACW)),
])
_law_space3_mul_agreement = partial(_agreement, space3.mul3, [("coefficients", space3.mul3_coeffs)])
_law_space3_div_agreement = partial(_agreement, space3.div3, [("coefficients", space3.div3_coeffs)])


def _law_space3_conj_modulus(rng, s):
    p = space3.to_polar3(s)
    lhs = space3.from_polar3(space3.mul3_polar(p, space3.conj3_polar(p)))
    r = space3.modulus3(s)
    rhs = Space3(r * r, 0.0, 0.0)
    return [(lhs, rhs, {})]


@dataclass(frozen=True, slots=True)
class _Law:
    claims: Callable  # (rng, *operands) -> [(lhs, rhs, tags), ...]
    operands: int
    normative: bool
    dim: int | None = None  # operand dimension if fixed, else the audited one
    draw: Callable = _draw_cartesian


# The order is part of the determinism contract: a law's index seeds its streams.
_LAWS = {
    "add_commutative": _Law(_law_add_commutative, 2, True),
    "add_associative": _Law(_law_add_associative, 3, True),
    "mul_commutative": _Law(_law_mul_commutative, 2, True),
    "mul_associative": _Law(_law_mul_associative, 3, True),
    "distributive": _Law(_law_distributive, 3, False),
    "conj_modulus": _Law(_law_conj_modulus, 1, True),
    "n2_classic_equiv": _Law(_law_n2_classic_equiv, 2, True, dim=2),
    "roots_correct": _Law(_law_roots_correct, 1, True),
    "demoivre": _Law(_law_demoivre, 1, True),
    "cartesian_mul_agreement": _Law(_law_cartesian_mul_agreement, 2, False),
    "cartesian_div_agreement": _Law(_law_cartesian_div_agreement, 2, False),
    "space3_mul_agreement": _Law(_law_space3_mul_agreement, 2, False, dim=3, draw=_draw_space3),
    "space3_div_agreement": _Law(_law_space3_div_agreement, 2, False, dim=3, draw=_draw_space3),
    "space3_conj_modulus": _Law(_law_space3_conj_modulus, 1, True, dim=3, draw=_draw_space3),
}

LAW_IDS: tuple[str, ...] = tuple(_LAWS)
_LAW_CODES = {law: i for i, law in enumerate(LAW_IDS)}
NORMATIVE_LAWS = frozenset(law for law in LAW_IDS if _LAWS[law].normative)
HYPOTHESIS_LAWS = frozenset(LAW_IDS) - NORMATIVE_LAWS


def _law(law: str) -> _Law:
    """The table entry of a law id; the one place an unknown id is rejected."""
    if law not in _LAWS:
        raise ValueError(f"unknown law id: {law!r} (known: {', '.join(LAW_IDS)})")
    return _LAWS[law]


def audit_law(law: str, cfg: AuditConfig, dim: int) -> LawResult:
    """Tally one law over cfg.samples seeded draws at one dimension."""
    spec = _law(law)
    d = int(dim)
    passes = 0
    max_dev = 0.0
    resamples = 0
    first_cex: dict | None = None
    for index, rng in enumerate(_streams(cfg.seed, law, d, cfg.samples)):
        operands, redraws = _draw_operands(rng, spec, d, cfg.domain)
        resamples += redraws
        dev, failed = _judge(spec.claims(rng, *operands), cfg.tolerance)
        max_dev = max(max_dev, dev)
        if failed is None:
            passes += 1
        elif first_cex is None:
            lhs, rhs, tags = failed
            first_cex = {
                "operands": [to_dict(s) for s in operands],
                "lhs": to_dict(lhs),
                "rhs": to_dict(rhs),
                **tags,
                "sample_index": index,
            }
    return LawResult(law, d, cfg.samples, passes, max_dev, first_cex, resamples)


def select_laws(laws: list[str] | None = None) -> tuple[str, ...]:
    """The law ids to audit, all by default; an unknown or repeated id raises."""
    chosen = tuple(laws) if laws is not None else LAW_IDS
    for law in chosen:
        _law(law)
    if len(set(chosen)) < len(chosen):
        raise ValueError(f"law ids must not repeat, got {list(chosen)}")
    return chosen


def run_audit(cfg: AuditConfig, laws: list[str] | None = None) -> AuditReport:
    """One LawResult per (law, dim); deterministic for a fixed config."""
    chosen = select_laws(laws)
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
