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

Each law is declared once, in the ``_LAWS`` table: operand count, fixed
dimension, draw, drawn integers, normative flag, and its claims, written once
over operations that two evaluators name alike.

Determinism contract: each sample's stream is exactly numpy's
``SeedSequence((seed, law code, dim, sample index))`` seeding a PCG64, the
law code being the law's index in ``_LAWS``, so per-sample results are
independent of evaluation order and stable under parallel execution.  A
sample's operands are the first attempts of its stream that are not nearly
singular (tiny modulus, or a canonical angle within 1e-8 of a range
boundary); the others are redrawn and counted, separating law violations
from float pathology near the chart seams.  ``audit_law`` judges every
sample with its block as float64 columns (``_columns.Columns``), on streams
and draws that :mod:`hyperspace._columns` computes, as it holds the audit's
numpy code; the N = 2 ``complex`` oracle runs per sample.  The library's
functions only replay a cell's first failing sample, on the operands and
integers its block drew.

``run_audit`` splits its cells over the CPUs ``os.sched_getaffinity``
reports (``_run_cells``): largest estimated cost first to the least loaded
process, this one and a worker ``os.fork``ed per further CPU once numpy is
loaded, each piping its pickled results back.  The results return in cell
order, so a report's bytes do not depend on the split.

Bounds: at most 2**32 samples per cell (the sample index is one 32-bit seed
word) and dimensions up to ``MAX_DIM``, so one sample's first attempt fits
in a block of ``_BLOCK_WORDS`` words, which holds few samples at a high N.
"""

from __future__ import annotations

import cmath
import datetime as _dt
import json
import operator
import os
import warnings
from enum import Enum
from functools import partial
from types import SimpleNamespace

from ._version import VERSION
from .core import (
    TWO_PI,
    CartesianHC,
    DEFAULT_TOLERANCE,
    Tolerance,
    _CCW,
    _Frozen,
    _S3,
    _cartesian,
    _literal,
    closeness,
    conjugate,
    from_polar,
    make_cartesian,
    make_polar,
    modulus,
    to_dict,
    to_polar,
)
from . import algebra, coeff_formulas, space3

_BLOCK_WORDS = 1 << 14  # most stream words a block draws at once
MAX_DIM = 4096  # the largest power of two whose first attempt fits in _BLOCK_WORDS


class Domain(Enum):
    """Operand sampling domain."""

    UNRESTRICTED = "unrestricted"
    POSITIVE_RESTRICTED = "positive_restricted"

    @classmethod
    def _missing_(cls, value):
        known = ", ".join(d.value for d in cls)
        raise ValueError(f"unknown domain: {value!r} (known: {known})")


def _dims(dims) -> tuple[int, ...]:
    """Audited dimensions as ints; the one rule for ``AuditConfig`` and ``audit_law``."""
    dims = tuple(dims)
    if not dims or any(not hasattr(d, "__index__") or d < 2 for d in dims):
        raise ValueError(f"dims must be a nonempty list of ints >= 2, got {dims}")
    dims = tuple(map(operator.index, dims))  # ints, never truncated
    if any(d > MAX_DIM for d in dims):
        raise ValueError(f"dims must be at most {MAX_DIM}, got {dims}")
    if len(set(dims)) < len(dims):
        raise ValueError(f"dims must not repeat, got {dims}")
    return dims


class AuditConfig(_Frozen):
    __slots__ = _fields = ("dims", "samples", "seed", "tolerance", "domain")

    def __init__(self, dims: tuple[int, ...] = (2, 3, 4), samples: int = 1000, seed: int = 42,
                 tolerance: Tolerance = DEFAULT_TOLERANCE, domain: Domain = Domain.UNRESTRICTED) -> None:
        dims = _dims(dims)
        for name, value in (("samples", samples), ("seed", seed)):  # ints, as _dims takes them
            if not hasattr(value, "__index__"):
                raise ValueError(f"{name} must be an int, got {value!r}")
        samples, seed = operator.index(samples), operator.index(seed)
        if samples < 1:
            raise ValueError(f"samples must be >= 1, got {samples}")
        if samples > 2**32:  # the sample index is one 32-bit seed word
            raise ValueError(f"samples must be at most 2**32, got {samples}")
        if not 0 <= seed < 2**64:
            raise ValueError(f"seed must fit in 64 unsigned bits, got {seed}")
        if not isinstance(tolerance, Tolerance):  # read in each cell, maybe in a worker
            raise TypeError(f"tolerance must be a Tolerance, got {tolerance!r}")
        _Frozen.__init__(self, dims, samples, seed, tolerance, Domain(domain))


class LawResult(_Frozen):
    """Tally for one (law, dim) cell: law, dim, samples, passes, max_dev,
    counterexample (a dict, or None) and resamples.

    ``dim`` echoes the requested dimension; laws with an intrinsic dimension
    (the N = 2 classic check, the 3D laws) ignore it for operand
    construction but still derive their sample streams from it.
    """

    __slots__ = _fields = ("law", "dim", "samples", "passes", "max_dev", "counterexample", "resamples")

    @property
    def pass_rate(self) -> float:
        return self.passes / self.samples


class AuditReport(_Frozen):
    """An audit's config, its law ids, a LawResult per (law, dim), the
    package version and the UTC time it ran."""

    __slots__ = _fields = ("config", "laws", "results", "version", "generated_at")



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
# laws: (ops, ints, *operands) -> [(lhs, rhs, tags), ...], each written once
# and run by two evaluators that name the same operations: ``_VALUES``, the
# library's own functions on one sample's numbers, and ``_columns.Columns`` of
# the law's chart on a block of samples.  ints holds the integers the law's
# table entry declares, drawn after the operands; on a block, a column per
# integer, the last being one int that the block's rows share.

_POW_ORDERS, _ROOT_ORDERS, _DEMOIVRE_ORDERS = (-4, 9), (1, 7), (0, 9)

_VALUES = SimpleNamespace(
    add=algebra.add, mul=algebra.mul, div=algebra.div, pow_int=algebra.pow_int,
    nth_roots=algebra.nth_roots, mul_polar=algebra.mul_polar,
    pow_int_polar=algebra.pow_int_polar, nth_roots_polar=algebra.nth_roots_polar,
    to_polar=to_polar, from_polar=from_polar, conjugate=conjugate, modulus=modulus,
    conj3_polar=space3.conj3_polar,
    real=lambda x, like: make_cartesian(like.orientation, (x,) + (0.0,) * (like.dim - 1)),
    unit=lambda p: make_polar(p.orientation, 1.0, (0.0,) * (p.dim - 1)),
    formula=lambda body, a, b: _literal(body, a, b, None).assembled,
    to_complex=lambda s: complex(*s.coeffs),
    each=lambda f, *args: f(*args),
    classic=lambda z: CartesianHC((z.real, z.imag)),
    fmt=str.format,
)


def _law_add_commutative(ops, ints, s1, s2):
    return [(ops.add(s1, s2), ops.add(s2, s1), {})]


def _law_add_associative(ops, ints, s1, s2, s3):
    return [(ops.add(ops.add(s1, s2), s3), ops.add(s1, ops.add(s2, s3)), {})]


def _law_mul_commutative(ops, ints, s1, s2):
    return [(ops.mul(s1, s2), ops.mul(s2, s1), {})]


def _law_mul_associative(ops, ints, *operands):
    # Composition stays at the angle level, where products associate; the
    # conversion boundaries (operands in, result out) are part of the test.
    p1, p2, p3 = map(ops.to_polar, operands)
    lhs = ops.from_polar(ops.mul_polar(ops.mul_polar(p1, p2), p3))
    rhs = ops.from_polar(ops.mul_polar(p1, ops.mul_polar(p2, p3)))
    return [(lhs, rhs, {})]


def _law_distributive(ops, ints, s, t1, t2):
    lhs = ops.mul(s, ops.add(t1, t2))
    rhs = ops.add(ops.mul(s, t1), ops.mul(s, t2))
    return [(lhs, rhs, {})]


def _law_conj_modulus(ops, ints, s):
    r = ops.modulus(s)
    return [(ops.mul(s, ops.conjugate(s)), ops.real(r * r, s), {})]


def _law_n2_classic_equiv(ops, ints, s1, s2):
    # Always checked at N = 2 against the textbook complex oracle, row by row;
    # each operand's complex value, root modulus and phase are taken once.
    n_pow, n = ints
    z1, z2 = ops.to_complex(s1), ops.to_complex(s2)
    root_r = ops.each(lambda z: abs(z) ** (1.0 / n), z1)
    phase = ops.each(lambda z: cmath.phase(z) % TWO_PI, z1)
    return [
        (ops.mul(s1, s2), ops.classic(ops.each(operator.mul, z1, z2)), {"check": "mul"}),
        (ops.div(s1, s2), ops.classic(ops.each(operator.truediv, z1, z2)), {"check": "div"}),
        (ops.pow_int(s1, n_pow), ops.classic(ops.each(operator.pow, z1, n_pow)),
         {"check": ops.fmt("pow {}", n_pow)}),
    ] + [
        (root, ops.classic(ops.each(lambda r, a, m=m: cmath.rect(r, (a + TWO_PI * m) / n), root_r, phase)),
         {"check": f"root {m}/{n}"})
        for m, root in enumerate(ops.nth_roots(s1, n))
    ]


def _law_roots_correct(ops, ints, s):
    # Roots power back through their own chains (angle level); the list of
    # coordinate projections must be pairwise distinct.
    n = ints[-1]
    chains = ops.nth_roots_polar(ops.to_polar(s), n)
    roots = [ops.from_polar(p) for p in chains]
    backs = [
        (ops.from_polar(ops.pow_int_polar(chain, n)), s, {"root_index": m, "order": n})
        for m, chain in enumerate(chains)
    ]
    return backs + [
        (roots[i], roots[j], _Distinct(note=f"roots {i} and {j} coincide"))
        for i in range(n)
        for j in range(i + 1, n)
    ]


def _law_demoivre(ops, ints, s):
    n = ints[-1]
    p = ops.to_polar(s)
    acc = ops.unit(p)
    for _ in range(n):
        acc = ops.mul_polar(acc, p)
    return [(ops.pow_int(s, n), ops.from_polar(acc), {"order": n})]


def _agreement(normative, routes, ops, ints, s1, s2):
    """Two operands through the normative operation and every formula route."""
    nm = getattr(ops, normative)(s1, s2)
    return [(ops.formula(body, s1, s2), nm, {"route": label}) for label, body in routes]


# (label, formula body), run in the operands' chart, which is the law's; the
# public formula functions run the same bodies
_CARTESIAN_MUL_ROUTES = [("general", coeff_formulas._mul_general), ("coordinate", coeff_formulas._mul_coordinate)]
_CARTESIAN_DIV_ROUTES = [("general", coeff_formulas._div_general), ("coordinate", coeff_formulas._div_coordinate)]
_SPACE3_MUL_ROUTES = [("coefficients", space3._mul3_coeffs)]
_SPACE3_DIV_ROUTES = [("coefficients", space3._div3_coeffs)]


def _law_space3_conj_modulus(ops, ints, s):
    p = ops.to_polar(s)
    r = ops.modulus(s)
    return [(ops.from_polar(ops.mul_polar(p, ops.conj3_polar(p))), ops.real(r * r, s), {})]


class _Law(_Frozen):
    # claims: (ops, ints, *operands) -> [(lhs, rhs, tags), ...]
    # operands: how many; normative: whether the law must hold
    # dim: the operand dimension if fixed (None: the audited one)
    # chart: the operands' chart; ints: integer ranges drawn after the operands
    __slots__ = _fields = ("claims", "operands", "normative", "dim", "chart", "ints")
    _defaults = {"dim": None, "chart": _CCW, "ints": ()}


def _agreement_law(normative: str, routes, **kw) -> _Law:
    return _Law(partial(_agreement, normative, routes), 2, False, **kw)


# The order is part of the determinism contract: a law's index seeds its streams.
_LAWS = {
    "add_commutative": _Law(_law_add_commutative, 2, True),
    "add_associative": _Law(_law_add_associative, 3, True),
    "mul_commutative": _Law(_law_mul_commutative, 2, True),
    "mul_associative": _Law(_law_mul_associative, 3, True),
    "distributive": _Law(_law_distributive, 3, False),
    "conj_modulus": _Law(_law_conj_modulus, 1, True),
    "n2_classic_equiv": _Law(_law_n2_classic_equiv, 2, True, dim=2, ints=(_POW_ORDERS, _ROOT_ORDERS)),
    "roots_correct": _Law(_law_roots_correct, 1, True, ints=(_ROOT_ORDERS,)),
    "demoivre": _Law(_law_demoivre, 1, True, ints=(_DEMOIVRE_ORDERS,)),
    "cartesian_mul_agreement": _agreement_law("mul", _CARTESIAN_MUL_ROUTES),
    "cartesian_div_agreement": _agreement_law("div", _CARTESIAN_DIV_ROUTES),
    "space3_mul_agreement": _agreement_law("mul", _SPACE3_MUL_ROUTES, dim=3, chart=_S3),
    "space3_div_agreement": _agreement_law("div", _SPACE3_DIV_ROUTES, dim=3, chart=_S3),
    "space3_conj_modulus": _Law(_law_space3_conj_modulus, 1, True, dim=3, chart=_S3),
}

LAW_IDS: tuple[str, ...] = tuple(_LAWS)
NORMATIVE_LAWS = frozenset(law for law in LAW_IDS if _LAWS[law].normative)
HYPOTHESIS_LAWS = frozenset(LAW_IDS) - NORMATIVE_LAWS


def _law(law: str) -> _Law:
    """The table entry of a law id; the one place an unknown id is rejected."""
    if law not in _LAWS:
        raise ValueError(f"unknown law id: {law!r} (known: {', '.join(LAW_IDS)})")
    return _LAWS[law]


def _words(spec: _Law, dim: int, domain: Domain) -> tuple[int, int]:
    """The doubles n of a sample's first attempt, and the words k its block
    computes: n, then a word for every two integers the law draws."""
    n = spec.operands * ((spec.dim or dim) + (domain is Domain.UNRESTRICTED))
    return n, n + (len(spec.ints) + 1) // 2


def _sample(cfg: AuditConfig, spec: _Law, operands, ints, j: int):
    """The counterexample replay: row j of a block's operands and integers,
    exactly as the block drew them, through the library's functions:
    (operands, deviation, failing claim or None)."""
    drawn = [_cartesian(spec.chart, tuple(s.c[j].tolist())) for s in operands]
    ints = ints[: len(spec.ints), j].tolist()
    return (drawn, *_judge(spec.claims(_VALUES, ints, *drawn), cfg.tolerance))


def audit_law(law: str, cfg: AuditConfig, dim: int) -> LawResult:
    """Tally one law over cfg.samples seeded draws at one dimension."""
    from . import _columns as K  # loaded here: importing the audit loads no numpy

    spec, (d,) = _law(law), _dims((dim,))
    n, k = _words(spec, d, cfg.domain)
    unrestricted = cfg.domain is Domain.UNRESTRICTED
    # a block computes k <= n + 1 words a sample, at most _BLOCK_WORDS at any N
    rows = max(1, _BLOCK_WORDS // (n + 1))
    passes, max_dev, resamples, first_cex = 0, 0.0, 0, None
    for i0 in range(0, cfg.samples, rows):
        m = min(rows, cfg.samples - i0)
        seeds = K._seed_words(cfg.seed, LAW_IDS.index(law), d, i0, m)
        raw = K._stream_words(seeds, k)
        dev, failed, redraws, block = K._column_block(spec, unrestricted, cfg.tolerance, _Distinct, n, seeds, raw)
        resamples += redraws
        passes += m - int(failed.sum())
        max_dev = max(max_dev, float(dev.max()))
        if first_cex is None and failed.any():
            j = int(failed.argmax())
            drawn, replayed, claim = _sample(cfg, spec, *block, j)
            if claim is None or replayed != dev[j]:
                raise RuntimeError(f"{law} sample {i0 + j}: column and scalar verdicts differ")
            lhs, rhs, tags = claim
            first_cex = {
                "operands": [to_dict(s) for s in drawn],
                "lhs": to_dict(lhs),
                "rhs": to_dict(rhs),
                **tags,
                "sample_index": i0 + j,
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


def _shares(cfg: AuditConfig, cells, procs: int) -> list[list[int]]:
    """The cells' indices split over procs processes, each share in cell
    order: largest estimated cost first, to the least loaded process.  A
    cell's cost is estimated from the request alone: its samples times the
    words its block computes a sample, doubled for a law that draws an
    integer and tripled for one that draws two."""
    shares, loads = [[] for _ in range(procs)], [0] * procs
    costs = [cfg.samples * _words(_LAWS[law], dim, cfg.domain)[1] * (1 + len(_LAWS[law].ints))
             for law, dim in cells]
    for i in sorted(range(len(cells)), key=lambda i: -costs[i]):
        p = loads.index(min(loads))
        shares[p].append(i)
        loads[p] += costs[i]
    return [sorted(share) for share in shares]


def _run_share(cfg: AuditConfig, cells, share):
    """``audit_law`` of a share's cells in cell order, up to the first that
    raises: ({cell index: LawResult}, (cell index, exception) or None)."""
    results = {}
    for i in share:
        law, dim = cells[i]
        try:
            results[i] = audit_law(law, cfg, dim)
        except Exception as exc:
            return results, (i, exc)
    return results, None


def _fork(cfg: AuditConfig, cells, share):
    """A forked worker that runs a share and pipes back its pickled outcome:
    its pid and the pipe's read end, a binary file.  The worker leaves
    through ``os._exit``, never returning into the caller's stack."""
    import pickle

    r, w = os.pipe()
    # numpy's BLAS thread makes this process multi-threaded, and from Python
    # 3.12 on os.fork warns of that: a lock another thread holds stays held in
    # the child.  A worker runs only the audit's elementwise numpy calls and
    # never calls BLAS, so the warning is silenced here, for this call only.
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", r".*multi-threaded.*fork", DeprecationWarning)
        pid = os.fork()
    if pid:
        os.close(w)
        return pid, os.fdopen(r, "rb")
    code = 1
    try:
        os.close(r)
        with os.fdopen(w, "wb") as fh:
            pickle.dump(_run_share(cfg, cells, share), fh)
        code = 0
    finally:
        os._exit(code)


def _run_cells(cfg: AuditConfig, cells) -> list[LawResult]:
    """``audit_law`` of every (law, dim) cell, split over the usable CPUs.

    One share of the cells per CPU that ``os.sched_getaffinity`` reports, at
    most one per cell: this process runs the first share and one forked
    worker runs each other, forked once numpy and the column kernels are
    loaded, so no worker imports them again.  Where the call is missing
    (macOS, Windows) or reports one CPU, this process runs every cell and
    nothing forks.  Cells are independent, so the results are the same in
    any split; an exception is the one a single process would raise, the
    earliest failing cell's.  Every worker is reaped before this returns or
    raises, and killed first if it has not finished."""
    procs = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    shares = _shares(cfg, cells, max(1, min(procs, len(cells))))
    workers = {}  # pid -> the read end of its pipe
    try:
        if len(shares) > 1:
            import pickle

            from . import _columns  # noqa: F401  loaded before the fork, for every worker
            for share in shares[1:]:
                pid, fh = _fork(cfg, cells, share)
                workers[pid] = fh
        results, error = _run_share(cfg, cells, shares[0])
        errors = [error] if error else []
        for pid in list(workers):
            with workers[pid] as fh:
                data = fh.read()
            _, status = os.waitpid(pid, 0)
            del workers[pid]
            if status:
                raise RuntimeError(f"an audit worker exited with status {os.waitstatus_to_exitcode(status)}")
            done, error = pickle.loads(data)
            results.update(done)
            errors += [error] if error else []
        if errors:
            raise min(errors, key=lambda e: e[0])[1]
        return [results[i] for i in range(len(cells))]
    finally:
        for pid, fh in workers.items():  # left only by an exception or Ctrl-C
            import signal

            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            fh.close()


def run_audit(cfg: AuditConfig, laws: list[str] | None = None) -> AuditReport:
    """One LawResult per (law, dim); deterministic for a fixed config."""
    chosen = select_laws(laws)
    results = tuple(_run_cells(cfg, [(law, dim) for law in chosen for dim in cfg.dims]))
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
