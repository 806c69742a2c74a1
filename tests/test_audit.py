import json
import math
import os
import signal
import sys
import time
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyperspace import algebra, audit, core
from hyperspace.audit import (
    HYPOTHESIS_LAWS,
    LAW_IDS,
    NORMATIVE_LAWS,
    AuditConfig,
    Domain,
    audit_law,
    has_failures,
    report_to_dict,
    report_to_json,
    report_to_markdown,
    run_audit,
    select_laws,
)
from hyperspace.core import (
    TWO_PI,
    CartesianHC,
    Orientation,
    PolarHC,
    Space3,
    Space3Polar,
    Tolerance,
    canonical_ranges,
    from_dict,
    from_polar,
    to_dict,
    to_polar,
)

from util import vec_close


class TestConfig:
    def test_defaults(self):
        cfg = AuditConfig()
        assert cfg.dims == (2, 3, 4) and cfg.seed == 42

    def test_validation(self):
        with pytest.raises(ValueError):
            AuditConfig(dims=())
        with pytest.raises(ValueError):
            AuditConfig(dims=(1,))
        with pytest.raises(ValueError):
            AuditConfig(samples=0)
        with pytest.raises(ValueError):
            AuditConfig(seed=2**64)
        with pytest.raises(ValueError, match="repeat"):
            AuditConfig(dims=(3, 2, 3))
        # ints by operator.index: nothing is truncated or parsed
        for bad in ({"samples": 2.5}, {"dims": (2.9, 3)}, {"seed": 1.5}, {"dims": ("3",)}):
            with pytest.raises(ValueError):
                AuditConfig(**bad)
        cfg = AuditConfig(dims=(np.int64(3), np.uint8(2)), samples=np.int32(5), seed=np.uint64(2**63))
        assert (cfg.dims, cfg.samples, cfg.seed) == ((3, 2), 5, 2**63)
        # a cell reads the tolerance's fields, possibly in a forked worker
        with pytest.raises(TypeError, match="tolerance must be a Tolerance, got 1e-09"):
            AuditConfig(dims=(2,), samples=3, tolerance=1e-9)

    def test_bounds(self):
        with pytest.raises(ValueError, match="samples must be at most 2\\*\\*32"):
            AuditConfig(samples=2**32 + 1)
        with pytest.raises(ValueError, match=f"dims must be at most {audit.MAX_DIM}"):
            AuditConfig(dims=(audit.MAX_DIM + 1,))
        assert AuditConfig(samples=2**32, dims=(audit.MAX_DIM,)).samples == 2**32

    @pytest.mark.parametrize("domain", list(Domain))
    def test_max_dim_is_the_largest_power_of_two_whose_samples_fit_a_block(self, domain):
        # a block holds at least one sample's first attempt at MAX_DIM
        def words(dim):
            return max(audit._words(audit._LAWS[law], dim, domain)[1] for law in LAW_IDS)

        assert words(audit.MAX_DIM) <= audit._BLOCK_WORDS < words(2 * audit.MAX_DIM)

    def test_domain_by_value(self):
        assert AuditConfig(domain="positive_restricted").domain is Domain.POSITIVE_RESTRICTED
        assert AuditConfig(domain="unrestricted") == AuditConfig()

    def test_unknown_domain_lists_the_known_ones(self):
        message = "unknown domain: 'bogus' (known: unrestricted, positive_restricted)"
        for make in (Domain, lambda d: AuditConfig(domain=d)):
            with pytest.raises(ValueError) as exc:
                make("bogus")
            assert str(exc.value) == message

    def test_law_registry(self):
        assert len(LAW_IDS) == 14
        assert NORMATIVE_LAWS | HYPOTHESIS_LAWS == set(LAW_IDS)
        assert not NORMATIVE_LAWS & HYPOTHESIS_LAWS


class TestDeterminism:
    def test_reports_identical_modulo_timestamp(self):
        cfg = AuditConfig(dims=(2, 3), samples=40)
        d1 = report_to_dict(run_audit(cfg, ["distributive", "mul_associative"]))
        d2 = report_to_dict(run_audit(cfg, ["distributive", "mul_associative"]))
        d1.pop("generated_at")
        d2.pop("generated_at")
        assert json.dumps(d1) == json.dumps(d2)

    def test_per_sample_streams_order_independent(self):
        a = first_doubles(42, "distributive", 3, 7, 4)
        _ = first_doubles(42, "distributive", 3, 99, 4)
        b = first_doubles(42, "distributive", 3, 7, 4)
        assert list(a) == list(b) == list(ref_rng(42, "distributive", 3, 7).random(4))

    def test_prefix_stability(self):
        cfg3 = AuditConfig(dims=(3,), samples=30)
        cfg5 = AuditConfig(dims=(3,), samples=60)
        r3 = audit_law("distributive", cfg3, 3)
        r5 = audit_law("distributive", cfg5, 3)
        assert r3.counterexample["sample_index"] == r5.counterexample["sample_index"]


class TestNormativeLaws:
    @pytest.mark.parametrize("law", sorted(NORMATIVE_LAWS))
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_pass_rate_one(self, law, dim):
        cfg = AuditConfig(dims=(dim,), samples=300)
        result = audit_law(law, cfg, dim)
        assert result.passes == result.samples, result.counterexample
        assert result.counterexample is None

    def test_roots_correct_judges_coincidence_after_power_back(self):
        def roots_correct(tolerance):
            cfg = AuditConfig(dims=(3,), samples=30, seed=3, tolerance=tolerance)
            return audit_law("roots_correct", cfg, 3)

        exact = roots_correct(Tolerance())
        # wider than the roots' spacing: all power back, two coincide, and the
        # coincidence adds nothing to max_dev
        loose = roots_correct(Tolerance(0.5, 0.5))
        assert loose.passes < loose.samples and loose.max_dev == exact.max_dev
        assert loose.counterexample["note"].endswith("coincide")
        # tighter than float accuracy: the first root that misses is reported
        tight = roots_correct(Tolerance(1e-300, 1e-17))
        assert tight.passes < tight.samples
        assert {"root_index", "order", "sample_index"} <= set(tight.counterexample)


class TestHypothesisLaws:
    def test_distributive_dim2_holds(self):
        result = audit_law("distributive", AuditConfig(dims=(2,), samples=500), 2)
        assert result.pass_rate == 1.0

    def test_distributive_dim3_refuted_with_counterexample(self):
        result = audit_law("distributive", AuditConfig(dims=(3,), samples=200), 3)
        assert result.passes < result.samples
        cex = result.counterexample
        assert cex is not None and "sample_index" in cex
        # replay the captured operands: the violation is real
        s, t1, t2 = (from_dict(d) for d in cex["operands"])
        lhs = algebra.mul(s, algebra.add(t1, t2))
        rhs = algebra.add(algebra.mul(s, t1), algebra.mul(s, t2))
        assert not vec_close(lhs.coeffs, rhs.coeffs, rel=1e-9)
        assert vec_close(lhs.coeffs, from_dict(cex["lhs"]).coeffs, rel=0, abs_eps=0)

    def test_agreement_laws_pass_on_positive_dim2(self):
        cfg = AuditConfig(dims=(2,), samples=300, domain=Domain.POSITIVE_RESTRICTED)
        for law in ("cartesian_mul_agreement", "cartesian_div_agreement"):
            result = audit_law(law, cfg, 2)
            assert result.pass_rate == 1.0, (law, result.counterexample)

    def test_agreement_laws_record_counterexamples_unrestricted(self):
        cfg = AuditConfig(dims=(3,), samples=100)
        for law in sorted(HYPOTHESIS_LAWS):
            result = audit_law(law, cfg, 3)
            if result.passes < result.samples:
                assert result.counterexample is not None
            else:
                assert result.counterexample is None

    def test_space3_agreement_counterexample_replayable(self):
        from hyperspace.core import approx_eq
        from hyperspace.space3 import from_dict3, mul3, mul3_coeffs

        result = audit_law("space3_mul_agreement", AuditConfig(dims=(3,), samples=50), 3)
        assert result.passes < result.samples
        s1, s2 = (from_dict3(d) for d in result.counterexample["operands"])
        assert not approx_eq(mul3_coeffs(s1, s2).assembled, mul3(s1, s2))


class TestStructure:
    def test_one_result_per_law_dim(self):
        cfg = AuditConfig(dims=(2, 3), samples=5)
        report = run_audit(cfg)
        assert len(report.results) == 14 * 2
        assert {(r.law, r.dim) for r in report.results} == {
            (law, d) for law in LAW_IDS for d in (2, 3)
        }

    def test_unknown_law_rejected(self):
        with pytest.raises(ValueError):
            audit_law("barycentric", AuditConfig(samples=1), 2)
        with pytest.raises(ValueError):
            run_audit(AuditConfig(samples=1), ["no_such_law"])

    def test_unknown_law_has_one_message(self):
        with pytest.raises(ValueError) as by_cell:
            audit_law("barycentric", AuditConfig(samples=1), 2)
        with pytest.raises(ValueError) as by_selection:
            select_laws(["add_commutative", "barycentric"])
        assert str(by_cell.value) == str(by_selection.value)
        assert str(by_cell.value).startswith("unknown law id: 'barycentric' (known: ")

    def test_repeated_law_rejected(self):
        with pytest.raises(ValueError, match="repeat"):
            run_audit(AuditConfig(samples=1), ["add_commutative", "add_commutative"])

    def test_counterexample_iff_failures(self):
        report = run_audit(AuditConfig(dims=(2, 3), samples=30))
        for r in report.results:
            assert (r.counterexample is not None) == (r.passes < r.samples)

    def test_json_schema(self):
        report = run_audit(AuditConfig(dims=(2,), samples=5), ["mul_commutative"])
        payload = json.loads(report_to_json(report))
        assert set(payload) == {"config", "results", "version", "generated_at"}
        assert payload["config"]["seed"] == 42
        assert payload["config"]["domain"] == "unrestricted"
        row = payload["results"][0]
        assert set(row) == {
            "law",
            "dim",
            "samples",
            "passes",
            "max_dev",
            "resamples",
            "counterexample",
        }

    def test_markdown_rendering(self):
        report = run_audit(AuditConfig(dims=(2, 3), samples=10), ["distributive"])
        text = report_to_markdown(report)
        assert "| distributive | 2 |" in text
        assert "| distributive | 3 |" in text
        assert "hypothesis" in text

    def test_has_failures(self):
        passing = run_audit(AuditConfig(dims=(2,), samples=20), ["mul_commutative"])
        failing = run_audit(AuditConfig(dims=(3,), samples=50), ["distributive"])
        assert not has_failures(passing)
        assert has_failures(failing)

    def test_tolerance_echoed(self):
        cfg = AuditConfig(dims=(2,), samples=5, tolerance=Tolerance(1e-10, 1e-7))
        payload = report_to_dict(run_audit(cfg, ["add_commutative"]))
        assert payload["config"]["tolerance"] == {"abs_eps": 1e-10, "rel_eps": 1e-7}


# ---------------------------------------------------------------------------
# The audit derives every sample's stream a cell at a time and draws each
# sample's operands in one call.  Its reference is numpy itself: a fresh
# SeedSequence per sample and one uniform call per value, as below.

STREAM_SEEDS = [0, 42, 2**32 - 1, 2**32, 2**64 - 1]
ACW, CW, S3 = Orientation.ANTICLOCKWISE, Orientation.CLOCKWISE, Orientation.S3


def ref_rng(seed, law, dim, index):
    return np.random.default_rng(np.random.SeedSequence((seed, LAW_IDS.index(law), dim, index)))


def seed_row(seed, law, dim, index):
    """A sample's seed words, as its block computes them."""
    return audit._seed_words(seed, LAW_IDS.index(law), dim, index, 1)[0]


def first_doubles(seed, law, dim, index, k):
    """A sample's first k doubles, from words computed for it alone."""
    return audit._doubles(audit._stream_words(seed_row(seed, law, dim, index)[None], k)[0])


def pcg64_whose_next_word_is(word):
    """A PCG64 whose next output is word: PCG64 steps its 128-bit state s,
    then outputs rotr64(hi(s) ^ lo(s), s >> 122), so choose the stepped
    state and step back."""
    mult, mask = 0x2360ED051FC65DA44385DF649FCCF645, 2**128 - 1
    bits = np.random.PCG64(0)
    inc, rot = bits.state["state"]["inc"], 5
    hi = rot << 58 | 0x123456789
    lo = hi ^ ((word << rot | word >> (64 - rot)) & 2**64 - 1)
    state = ((hi << 64 | lo) - inc) * pow(mult, -1, 2**128) & mask
    bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                  "has_uint32": 0, "uinteger": 0}
    return bits


def ref_draw_cartesian(rng, dim, domain):
    mag = 10.0 ** rng.uniform(-2.0, 2.0)
    if domain is Domain.UNRESTRICTED:
        return CartesianHC(tuple(rng.uniform(-1.0, 1.0, dim) * mag))
    angles = rng.uniform(-math.pi / 4, math.pi / 4, dim - 1)
    return from_polar(PolarHC(mag, tuple(angles), ACW))


def ref_draw_space3(rng, dim, domain):
    mag = 10.0 ** rng.uniform(-2.0, 2.0)
    if domain is Domain.UNRESTRICTED:
        a, b, c = rng.uniform(-1.0, 1.0, 3) * mag
        return Space3(a, b, c)
    theta = rng.uniform(0.0, math.pi / 4)
    phi = rng.uniform(-math.pi / 4, math.pi / 4)
    return from_polar(Space3Polar(mag, theta, phi % TWO_PI))


def ref_near_singular(s):
    # ccw for N-dimensional operands; 3D operands keep their s3 chart
    p = to_polar(s, ACW)
    if p.modulus < audit._SINGULAR_MODULUS:
        return True
    margin = audit._ANGLE_MARGIN
    ranges = canonical_ranges(p.orientation, p.dim)
    return any(a - lo < margin or hi - a < margin for a, (lo, hi, _) in zip(p.angles, ranges))


def ref_draw_operands(rng, spec, dim, domain):
    draw = ref_draw_space3 if spec.chart is S3 else ref_draw_cartesian
    out, redraws = [], 0
    for _ in range(spec.operands):
        while True:
            s = draw(rng, spec.dim or dim, domain)
            if not ref_near_singular(s):
                break
            redraws += 1
        out.append(s)
    return out, redraws


def ref_audit_law(law, cfg, dim):
    spec = audit._LAWS[law]
    passes, max_dev, resamples, first_cex = 0, 0.0, 0, None
    for index in range(cfg.samples):
        rng = ref_rng(cfg.seed, law, dim, index)
        operands, redraws = ref_draw_operands(rng, spec, dim, cfg.domain)
        resamples += redraws
        ints = [int(rng.integers(*r)) for r in spec.ints]
        dev, failed = audit._judge(spec.claims(audit._VALUES, ints, *operands), cfg.tolerance)
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
    return audit.LawResult(law, dim, cfg.samples, passes, max_dev, first_cex, resamples)


AFTER = [(-4, 9), (1, 7), (0, 9)]  # integer ranges a law might draw after its operands


def ref_drawn(seed, law, dim, domain, index):
    """A sample's operands, redraws and the integers drawn after them, value
    by value from numpy's generator."""
    rng = ref_rng(seed, law, dim, index)
    operands, redraws = ref_draw_operands(rng, audit._LAWS[law], dim, domain)
    return [to_dict(s) for s in operands], redraws, [int(rng.integers(*r)) for r in AFTER]


def drawn_block(seed, law, dim, domain, i0, m):
    """ref_drawn() of samples i0 ... i0+m-1, drawn as the audit draws them,
    as one block: the integers from the word past each sample's last
    attempt."""
    from hyperspace import _columns

    spec = audit._LAWS[law]
    n, k = audit._words(spec, dim, domain)
    seeds = audit._seed_words(seed, LAW_IDS.index(law), dim, i0, m)
    raw = audit._stream_words(seeds, k)
    operands, redraws = audit._draw_block(_columns, spec, domain, seeds, raw, n)
    ints = audit._integers(AFTER, seeds, raw, n // spec.operands * (spec.operands + redraws))
    return [
        ([to_dict(audit._cartesian(spec.chart, tuple(s.c[i].tolist()))) for s in operands],
         int(redraws[i]), ints[:, i].tolist())
        for i in range(m)
    ]


class TestStreams:
    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    def test_seed_words_are_numpys(self, seed):
        for code in range(len(LAW_IDS)):
            for dim in (2, 3, 8):
                for i0, m in ((0, 3), (audit._BLOCK - 2, 5)):
                    want = [
                        np.random.SeedSequence((seed, code, dim, i)).generate_state(4, np.uint64).tolist()
                        for i in range(i0, i0 + m)
                    ]
                    assert audit._seed_words(seed, code, dim, i0, m).tolist() == want

    def test_the_last_sample_index_is_2_to_the_32_minus_1(self):
        # the sample index is one 32-bit seed word
        assert audit._seed_words(42, 0, 3, 2**32 - 2, 2).shape == (2, 4)
        for i0, m in ((2**32 - 1, 2), (-1, 1)):
            with pytest.raises(ValueError, match="sample indices must fit in 32 bits"):
                audit._seed_words(42, 0, 3, i0, m)

    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    def test_streams_draw_what_numpy_draws(self, seed):
        # the raw words, the doubles and integers audit_law takes from them,
        # against numpy's generator for each sample
        # (integers read past the block's words are computed for their rows)
        for law in LAW_IDS:
            for dim in (2, 3, 8):
                seeds = audit._seed_words(seed, LAW_IDS.index(law), dim, 3, 7)
                raw = audit._stream_words(seeds, 11)
                ints = audit._integers(AFTER, seeds, raw, np.full(7, 9))
                for cut in (1, 9, 10):
                    assert audit._integers(AFTER, seeds, raw[:, :cut], np.full(7, 9)).tolist() == ints.tolist()
                for i in range(7):
                    assert raw[i].tolist() == ref_rng(seed, law, dim, 3 + i).bit_generator.random_raw(11).tolist()
                    ref = ref_rng(seed, law, dim, 3 + i)
                    assert audit._doubles(raw[i, :9]).tolist() == ref.random(9).tolist()
                    assert ints[:, i].tolist() == [int(ref.integers(*r)) for r in AFTER]

    def test_streams_cross_the_real_block_boundary(self):
        # samples on both sides of the audit's block boundary, drawn as one
        # block and as two
        seed, law, i0 = 2**64 - 1, "roots_correct", audit._BLOCK - 2

        def words(i0, m):
            return audit._stream_words(audit._seed_words(seed, LAW_IDS.index(law), 3, i0, m), 3).tolist()

        whole = words(i0, 5)
        assert whole == words(i0, 2) + words(audit._BLOCK, 3)
        assert whole == [ref_rng(seed, law, 3, i).bit_generator.random_raw(3).tolist() for i in range(i0, i0 + 5)]

    # Lemire's method rejects a 32-bit draw x when the low half of x * 13 is
    # below 2**32 % 13 = 9, as for x = 0: integers(-4, 9) then draws again,
    # from the word's high half or from the next word's low half
    @pytest.mark.parametrize("word", [(2**32 - 1) << 32, 2**32 - 1], ids=["low-half", "high-half"])
    def test_a_rejected_integer_is_drawn_again_as_numpy_does(self, word):
        bits = pcg64_whose_next_word_is(word)
        copy = np.random.PCG64()
        copy.state = bits.state
        raw = copy.random_raw(4)
        assert int(raw[0]) == word
        ref = np.random.Generator(bits)
        want = [int(ref.integers(-4, 9)) for _ in range(2)]
        # a block of one row, whose words need no seed words to extend them
        assert audit._integers([(-4, 9)] * 2, None, raw[None], np.zeros(1, int))[:, 0].tolist() == want
        # one rejected half, so the three halves drawn end in the second
        # word and numpy's next double comes from the third
        assert ref.random() == (int(raw[2]) >> 11) * 2.0**-53

    @pytest.mark.parametrize("domain", list(Domain))
    def test_one_call_draws_match_per_value_draws(self, domain, monkeypatch):
        for law in LAW_IDS:
            for dim in (2, 3, 8):
                got = drawn_block(42, law, dim, domain, 0, 6)
                for index in range(6):
                    assert got[index] == ref_drawn(42, law, dim, domain, index)

    @pytest.mark.parametrize("domain", list(Domain))
    @pytest.mark.parametrize("law", LAW_IDS)
    def test_redraws_match_the_reference(self, law, domain, monkeypatch):
        # a wide angle margin rejects many attempts, so redraws interleave
        # with the later operands' doubles, and the rows of a block of 8
        # redraw in different rounds; the audit's blocks judge their
        # redrawn rows with the rest
        monkeypatch.setattr(audit, "_ANGLE_MARGIN", 0.3)
        monkeypatch.setattr(audit, "_BLOCK", 8)
        cfg = AuditConfig(dims=(3,), samples=30, seed=2**32, domain=domain)
        mixed = False  # a block whose rows redraw different numbers of times
        for i0 in range(0, cfg.samples, 8):
            got = drawn_block(cfg.seed, law, 3, domain, i0, min(8, cfg.samples - i0))
            for index, row in enumerate(got, i0):
                assert row == ref_drawn(cfg.seed, law, 3, domain, index), index
            mixed |= len({redraws for _, redraws, _ in got}) > 1
        assert mixed
        got = audit_law(law, cfg, 3)
        assert got == ref_audit_law(law, cfg, 3)
        assert got.resamples > 0

    @pytest.mark.parametrize("domain", list(Domain))
    @pytest.mark.parametrize("law", [law for law in LAW_IDS if audit._LAWS[law].ints])
    def test_redrawn_rows_draw_their_integers_past_the_block(self, law, domain, monkeypatch):
        # a row with redraws draws its integers after (operands + redraws)
        # attempts of w words, past the words its block computed; words past
        # them are computed for the rows that read there, not the block
        from hyperspace import _columns

        monkeypatch.setattr(audit, "_ANGLE_MARGIN", 0.3)
        spec, cfg = audit._LAWS[law], AuditConfig(dims=(3,), samples=30, seed=2**32, domain=domain)
        n, k = audit._words(spec, 3, domain)
        seeds = audit._seed_words(cfg.seed, LAW_IDS.index(law), 3, 0, cfg.samples)
        raw = audit._stream_words(seeds, k)
        _, redraws = audit._draw_block(_columns, spec, domain, seeds, raw, n)
        extended = []

        def stream_words(seeds, k):
            extended.append(len(seeds))
            return stream_words.real(seeds, k)

        stream_words.real = audit._stream_words
        monkeypatch.setattr(audit, "_stream_words", stream_words)
        ints = audit._column_block(spec, cfg, n, seeds, raw)[3][1]
        assert 0 < max(extended) <= np.count_nonzero(redraws) < cfg.samples
        for i in np.flatnonzero(redraws).tolist():
            words = (spec.operands + int(redraws[i])) * (n // spec.operands)
            assert words >= k
            ref = ref_rng(cfg.seed, law, 3, i)
            ref.bit_generator.random_raw(words)
            assert ints[:, i].tolist() == [int(ref.integers(*r)) for r in spec.ints], i


# ---------------------------------------------------------------------------
# The audit evaluates a block of samples at a time as float64 columns.  Its
# reference is the scalar engine, to the bit: the kernels against core's
# chart maps, and whole cells against ref_audit_law above.

def bits(values):
    """The IEEE bit patterns of floats, so that 0.0 and -0.0 differ."""
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


def edge_rows(n, axes=None):
    """Zero, signed zeros, on-axis points (on every axis, or on the given
    ones) and an atan2 just below zero."""
    rows = [[0.0] * n, [-0.0] * n, [-0.0] + [0.0] * (n - 1), [1.0] + [-0.0] * (n - 1),
            [-1.0] + [-0.0] * (n - 1), [1.0, -1e-300] + [0.0] * (n - 2)]
    for k in range(n) if axes is None else axes:
        for x in (2.5, -2.5):
            rows.append([0.0] * k + [x] + [0.0] * (n - k - 1))
    return np.array(rows)


def in_blocks(rows):
    """Up to N = 8, the rows as one block; above, as blocks of 1, 2 and 3
    rows in turn, the block sizes of a high dimension's cells."""
    if rows.shape[1] <= 8:
        return [rows]
    return [b for b in np.split(rows, np.cumsum([1, 2, 3] * len(rows))) if len(b)]


HIGH_DIMS = [300, audit.MAX_DIM]
CHARTS = [(n, o) for o in (ACW, CW) for n in [*range(2, 9), *HIGH_DIMS]] + [(3, S3)]


class TestColumns:
    @pytest.mark.parametrize("n,chart", CHARTS)
    def test_chain_is_the_scalar_chain(self, n, chart):
        from hyperspace import _columns, core

        rng = np.random.default_rng(n)
        k = 300 if n <= 8 else 4  # a high dimension: few rows, edges on four axes
        edges = edge_rows(n, None if n <= 8 else (0, 1, n // 2, n - 1))
        for c in in_blocks(np.vstack([edges, rng.uniform(-1, 1, (k, n)) * 10.0 ** rng.uniform(-3, 3, (k, 1))])):
            rows = _columns.rows(c, chart)
            r = [math.hypot(*row) for row in c.tolist()]
            assert bits(rows.r) == bits(r)
            assert bits(rows.t) == bits([core._chain(tuple(row), m, chart) for row, m in zip(c.tolist(), r)])

    def test_a_negative_angle_within_half_an_ulp_of_zero_wraps_to_zero(self):
        from hyperspace import _columns, core

        # -1e-15 is more than half an ulp of 2*pi below zero, -1e-300 less
        c = np.array([[1.0, -1e-300], [1.0, -1e-15], [1.0, -0.0]])
        want = [core._chain(tuple(row), 1.0, ACW) for row in c.tolist()]
        assert want == [(0.0,), (TWO_PI - 1e-15,), (-0.0,)] and TWO_PI - 1e-15 < TWO_PI
        assert bits(_columns.rows(c, ACW).t) == bits(want)

    @pytest.mark.parametrize("n,chart", CHARTS)
    def test_point_is_the_scalar_point(self, n, chart):
        from hyperspace import _columns, core

        rng = np.random.default_rng(100 + n)
        k = 300 if n <= 8 else 4
        th = np.vstack([np.zeros((2, n - 1)), -np.zeros((1, n - 1)), rng.uniform(-7, 7, (k, n - 1))])
        r = np.concatenate([[1.0, 0.0, 2.0], rng.uniform(0, 50, k)])
        for block in in_blocks(np.hstack([r[:, None], th])):
            r, th = block[:, 0], block[:, 1:]
            want = [core._point(m, tuple(t), chart) for m, t in zip(r.tolist(), th.tolist())]
            assert bits(_columns.point(r, th, chart)) == bits(want)

    def test_closeness_is_the_scalar_closeness(self):
        from hyperspace import _columns, core

        rng = np.random.default_rng(7)
        a = rng.uniform(-1, 1, (400, 4))
        b = a + rng.choice([0.0, 1e-13, 1e-9, 1e-3], (400, 1)) * rng.uniform(-1, 1, (400, 4))
        for tol in (Tolerance(), Tolerance(1e-10, 1e-3)):
            ok, gap = _columns.closeness(a, b, tol)
            want = [core.closeness(CartesianHC(x), CartesianHC(y), tol) for x, y in zip(a.tolist(), b.tolist())]
            assert ok.tolist() == [w[0] for w in want] and 0 < sum(ok) < len(ok)
            assert bits(gap) == bits([w[1] for w in want])


# The literal coefficient formulas: one body each, run on columns by
# _columns.ColumnPair and on each row by the public functions.

def formula_operands(rng, n, m, kind):
    """Two (m, n) coefficient blocks: uniform coefficients, positive-domain
    chains (every angle in (-pi/4, pi/4)), or uniform ones whose leading
    coefficient is negative, where sqrt(a_0^2) = |a_0| drops its sign."""
    mag = 10.0 ** rng.uniform(-2, 2, (2, m, 1))
    if kind == "positive":
        th = rng.uniform(-math.pi / 4, math.pi / 4, (2, m, n - 1))
        return [np.array([from_polar(PolarHC(r, tuple(t), ACW)).coeffs for r, t in zip(g[:, 0], h)])
                for g, h in zip(mag, th)]
    c = rng.uniform(-1, 1, (2, m, n)) * mag
    if kind == "negative":
        c[:, :, 0] = -np.abs(c[:, :, 0])
    return list(c)


def breakdown_fields(bd):
    """A breakdown's numbers, in field order."""
    if hasattr(bd, "a0"):
        return [bd.a0, *bd.coeffs, *bd.thetas]
    return [bd.a, bd.b, bd.c, bd.theta, bd.c_r, bd.c_i]


def formulas_of(chart):
    """(body, public scalar function) of every formula of a chart."""
    from hyperspace import coeff_formulas as cf, space3

    if chart is S3:
        return [(space3._mul3_coeffs, space3.mul3_coeffs), (space3._div3_coeffs, space3.div3_coeffs)]
    return [(body, lambda x, y, f=f: f(x, y, chart)) for body, f in (
        (cf._mul_general, cf.mul_coeffs_general), (cf._mul_coordinate, cf.mul_coeffs_coordinate),
        (cf._div_general, cf.div_coeffs_general), (cf._div_coordinate, cf.div_coeffs_coordinate))]


# audit._VALUES asked for cw wherever a plain coordinate value, which has no
# chart of its own, is converted
CW_VALUES = SimpleNamespace(**{
    **vars(audit._VALUES),
    **{name: partial(getattr(algebra, name), orientation=CW) for name in ("mul", "div", "pow_int", "nth_roots")},
    "to_polar": partial(to_polar, orientation=CW),
    "formula": lambda body, a, b: core._literal(body, a, b, CW).assembled,
})


class TestColumnFormulas:
    @given(n=st.integers(2, 64), m=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["uniform", "positive", "negative"]),
           chart=st.sampled_from([ACW, CW, S3]))
    def test_each_row_is_the_scalar_formula(self, n, m, seed, kind, chart):
        # every field of every breakdown, and the assembled coordinates, to
        # the bit, signed zeros included
        from hyperspace import _columns

        n = 3 if chart is S3 else n
        c1, c2 = formula_operands(np.random.default_rng(seed), n, m, kind)
        a, b = _columns.rows(c1, chart), _columns.rows(c2, chart)
        for body, scalar in formulas_of(chart):
            got = body(_columns.ColumnPair(a, b, chart), list(a.c.T), list(b.c.T))
            coords = _columns.Columns(chart).formula(body, a, b)
            for j, (x, y) in enumerate(zip(c1.tolist(), c2.tolist())):
                want = scalar(*(core.make_cartesian(chart, v) for v in (x, y)))
                assert bits([f[j] for f in breakdown_fields(got)]) == bits(breakdown_fields(want)), body
                assert bits(coords[j]) == bits(want.assembled.coeffs), body

    def test_the_sign_of_the_leading_coefficient_is_lost(self):
        # the control: negative leading coefficients do move the formulas
        # away from the normative product
        from hyperspace import _columns, coeff_formulas as cf

        c1, c2 = formula_operands(np.random.default_rng(1), 4, 50, "negative")
        a, b = _columns.rows(c1, ACW), _columns.rows(c2, ACW)
        got = _columns.Columns(ACW).formula(cf._mul_coordinate, a, b)
        ok, _ = _columns.closeness(got, _columns.Columns(ACW).mul(a, b), Tolerance())
        assert not ok.any()

    @pytest.mark.parametrize("chart", [ACW, CW])
    def test_the_coordinate_sums_add_left_to_right(self, chart):
        # 1e16 + 1 rounds back to 1e16, so the products below add to 0 left
        # to right and to 1 compensated, as sum() of floats adds from Python
        # 3.12 on: both evaluators add left to right, on every Python
        from hyperspace import _columns, coeff_formulas as cf

        c1, c2 = np.array([[1.0, 1e16, 1.0, -1e16]]), np.ones((1, 4))
        a, b = _columns.rows(c1, chart), _columns.rows(c2, chart)
        x, y = (core.make_cartesian(chart, tuple(c[0])) for c in (c1, c2))
        for body, scalar, a0 in ((cf._mul_coordinate, cf.mul_coeffs_coordinate, 1.0),
                                 (cf._div_coordinate, cf.div_coeffs_coordinate, 0.25)):
            assert scalar(x, y, chart).a0 == a0
            assert body(_columns.ColumnPair(a, b, chart), list(a.c.T), list(b.c.T)).a0.tolist() == [a0]

    @pytest.mark.parametrize("m, n", [(1, 6), (15, 6), (16, 6), (40, 6), (2, 600)])
    def test_every_block_is_the_scalar_formulas_row_by_row(self, m, n):
        # a block of any size runs on columns, to the bits of the library's
        # formulas on each of its rows, as the audit replays them in the
        # block's chart
        from hyperspace import _columns

        cartesian = audit._CARTESIAN_MUL_ROUTES + audit._CARTESIAN_DIV_ROUTES
        for chart, routes in ((ACW, cartesian), (CW, cartesian),
                              (S3, audit._SPACE3_MUL_ROUTES + audit._SPACE3_DIV_ROUTES)):
            c1, c2 = formula_operands(np.random.default_rng(m), 3 if chart is S3 else n, m, "uniform")
            a, b = _columns.rows(c1, chart), _columns.rows(c2, chart)
            values = [[core.make_cartesian(chart, c[j].tolist()) for c in (c1, c2)] for j in range(m)]
            for _, body in routes:
                got = _columns.Columns(chart).formula(body, a, b)
                want = (CW_VALUES if chart is CW else audit._VALUES).formula
                assert bits(got) == bits([want(body, *row).coeffs for row in values])

    def test_a_zero_divisor_in_any_row_raises(self):
        from hyperspace import _columns, coeff_formulas as cf, space3

        for chart, body in ((ACW, cf._div_general), (ACW, cf._div_coordinate), (S3, space3._div3_coeffs)):
            c = np.ones((3, 3))
            d = c.copy()
            d[1] = 0.0
            a, b = _columns.rows(c, chart), _columns.rows(d, chart)
            with pytest.raises(ZeroDivisionError):
                body(_columns.ColumnPair(a, b, chart), list(a.c.T), list(b.c.T))


def evaluated_block(law, dim, domain, rows, chart):
    """A block of drawn operands and its integers, as the audit draws them
    in ``chart`` for samples 0 ... rows-1 at seed 5: the operand blocks, and
    per row the operands as values and the integers."""
    from hyperspace import _columns, core

    spec = audit._LAWS[law]
    n, k = audit._words(spec, dim, domain)
    seeds = audit._seed_words(5, LAW_IDS.index(law), dim, 0, rows)
    raw = audit._stream_words(seeds, k)
    u, w = audit._doubles(raw[:, :n]), n // spec.operands
    blocks = [audit._draw(_columns, u[:, j : j + w], chart, domain)[0] for j in range(0, n, w)]
    values = [[core.make_cartesian(chart, b.c[i].tolist()) for b in blocks] for i in range(rows)]
    ints = []
    for i in range(rows):  # numpy's integers after a sample's first attempts
        rng = ref_rng(5, law, dim, i)
        rng.bit_generator.random_raw(n)
        ints.append([int(rng.integers(*r)) for r in spec.ints])
    return blocks, values, ints


def assert_evaluators_agree(law, dim, domain, rows, chart, values=audit._VALUES):
    """A law's one body, run on a block in ``chart`` by the column evaluator
    of that chart and on each of its rows by the library's functions
    (``values``): every claim's sides to the bit, and every distinct flag."""
    from hyperspace import _columns

    spec = audit._LAWS[law]
    blocks, operands, ints = evaluated_block(law, dim, domain, rows, chart)
    last = [row[-1] if row else 0 for row in ints]
    for key in sorted(set(last)):
        sel = [i for i, v in enumerate(last) if v == key]
        columns = np.array([ints[i] for i in sel], int).reshape(len(sel), -1).T
        block_ints = (*columns[:-1], key) if spec.ints else ()
        got = spec.claims(_columns.Columns(chart), block_ints, *(b.take(sel) for b in blocks))
        for j, i in enumerate(sel):
            want = spec.claims(values, ints[i], *operands[i])
            assert len(got) == len(want), (law, i)
            for (gl, gr, gt), (wl, wr, wt) in zip(got, want):
                assert bits(_columns.coords(gl)[j]) == bits(wl.coeffs), (law, dim, i)
                assert bits(_columns.coords(gr)[j]) == bits(wr.coeffs), (law, dim, i)
                assert isinstance(gt, audit._Distinct) == isinstance(wt, audit._Distinct)


class TestEvaluators:
    @pytest.mark.parametrize("domain", list(Domain))
    @pytest.mark.parametrize("dim", [2, 3, 8, 300])
    def test_the_evaluators_agree_claim_by_claim(self, dim, domain):
        for law in LAW_IDS:
            assert_evaluators_agree(law, dim, domain, 40 if dim <= 8 else 3, audit._LAWS[law].chart)

    @pytest.mark.parametrize("domain", list(Domain))
    def test_the_evaluators_agree_in_the_s3_chart(self, domain):
        # every law of the audited dimension on s3 numbers: the evaluator
        # takes coordinate results (add, conjugate, from_polar) back to polar
        # in its own chart, as the library does with Space3 values
        for law in LAW_IDS:
            if audit._LAWS[law].dim is None:
                assert_evaluators_agree(law, 3, domain, 40, S3)

    @pytest.mark.parametrize("domain", list(Domain))
    @pytest.mark.parametrize("dim", [2, 3, 8, 300])
    def test_the_evaluators_agree_in_the_cw_chart(self, dim, domain):
        # every law with no fixed dimension on cw numbers: the column kernels
        # convert on the mirrored axes, the library in the cw chart it is
        # asked for, and the formulas run their cw bodies on both sides
        for law in LAW_IDS:
            if audit._LAWS[law].dim is None:
                assert_evaluators_agree(law, dim, domain, 40 if dim <= 8 else 3, CW, CW_VALUES)


class TestColumnAudit:
    @pytest.mark.parametrize("seed", [0, 2**32, 2**64 - 1])
    @pytest.mark.parametrize("domain", list(Domain))
    def test_cells_are_the_scalar_cells(self, seed, domain, monkeypatch):
        # blocks of 4 samples, so every cell crosses block boundaries
        monkeypatch.setattr(audit, "_BLOCK", 4)
        cfg = AuditConfig(dims=(2, 3, 4, 8), samples=10, seed=seed, domain=domain)
        for law in LAW_IDS:
            for dim in cfg.dims:
                assert audit_law(law, cfg, dim) == ref_audit_law(law, cfg, dim), (law, dim)

    @pytest.mark.parametrize("tolerance", [Tolerance(0.5, 0.5), Tolerance(1e-300, 1e-17)],
                             ids=["loose", "tight"])
    def test_failing_claims_are_the_scalar_ones(self, tolerance, monkeypatch):
        # loose: roots coincide (a distinct claim fails); tight: normative
        # claims fail at float accuracy, each row at its first failing claim
        monkeypatch.setattr(audit, "_BLOCK", 4)
        cfg = AuditConfig(dims=(2, 3, 8), samples=10, seed=11, tolerance=tolerance)
        failing = 0
        for law in LAW_IDS:
            for dim in cfg.dims:
                got = audit_law(law, cfg, dim)
                assert got == ref_audit_law(law, cfg, dim), (law, dim)
                failing += got.passes < got.samples
        assert failing > 0

    @pytest.mark.parametrize("law, dim, op", [("distributive", 3, "add"),
                                              ("cartesian_mul_agreement", 4, "formula")])
    def test_the_replay_catches_a_column_verdict_the_scalar_one_does_not_give(
            self, law, dim, op, monkeypatch):
        # a column op off by 1e-3 moves every failing row's deviation; the
        # replay of the cell's first failing sample must notice
        from hyperspace import _columns

        exact = getattr(_columns.Columns, op)
        monkeypatch.setattr(_columns.Columns, op, lambda self, *args: exact(self, *args) + 1e-3)
        with pytest.raises(RuntimeError, match=rf"{law} sample \d+: column and scalar verdicts differ"):
            audit_law(law, AuditConfig(dims=(dim,), samples=50), dim)


class TestBlockSize:
    def test_a_block_stays_small_at_a_high_dimension(self, monkeypatch):
        # blocks shrink with the dimension, down to one sample
        blocks = []

        def stream_words(seeds, k):
            blocks.append((dim, len(seeds), k))  # dim: the cell being audited below
            return stream_words.real(seeds, k)

        stream_words.real = audit._stream_words
        monkeypatch.setattr(audit, "_stream_words", stream_words)
        for dim in (8, 100, 600):
            audit_law("mul_associative", AuditConfig(samples=100), dim)
        assert all(m * k <= audit._BLOCK_WORDS for _, m, k in blocks)
        assert [(dim, m) for dim, m, _ in blocks] == \
            [(8, 100), (100, 53), (100, 47)] + [(600, 9)] * 11 + [(600, 1)]

    @pytest.mark.parametrize("domain", list(Domain))
    def test_every_cell_runs_on_the_column_path(self, domain, monkeypatch):
        # at any dimension every sample, redrawn or not, is judged with its
        # block, and the library's functions only replay the counterexample;
        # the two Cartesian agreement laws' literal formulas take seconds a
        # sample at MAX_DIM, so they stop at N = 600
        calls = []

        def sample(*args):
            out = sample.real(*args)
            calls.append([to_dict(s) for s in out[0]])
            return out

        sample.real = audit._sample
        monkeypatch.setattr(audit, "_sample", sample)
        slow = {"cartesian_mul_agreement", "cartesian_div_agreement"}
        for dim, samples in ((600, 10), (audit.MAX_DIM, 2)):
            cfg = AuditConfig(dims=(dim,), samples=samples, domain=domain)
            for law in LAW_IDS:
                if dim > 600 and law in slow:
                    continue
                calls.clear()
                result = audit_law(law, cfg, dim)
                cex = result.counterexample
                replayed = [] if cex is None else [cex["operands"]]
                assert calls in ([], replayed), (law, dim)

    @pytest.mark.parametrize("words", [300, 1000])
    def test_small_blocks_and_scalar_cells_are_the_scalar_cells(self, words, monkeypatch):
        # few words a block: cells split into blocks of fewer samples, down
        # to one
        monkeypatch.setattr(audit, "_BLOCK_WORDS", words)
        cfg = AuditConfig(dims=(2, 3, 8), samples=60, seed=3)
        for law in LAW_IDS:
            for dim in cfg.dims:
                assert audit_law(law, cfg, dim) == ref_audit_law(law, cfg, dim), (law, dim)


class TestOneJudge:
    @pytest.mark.parametrize("domain", list(Domain))
    def test_redrawn_samples_are_judged_with_their_block(self, domain, monkeypatch):
        # a wide angle margin redraws many samples; every sample is judged by
        # the column kernels, and the library's functions run once a cell at
        # most, to replay its counterexample
        monkeypatch.setattr(audit, "_ANGLE_MARGIN", 0.3)
        monkeypatch.setattr(audit, "_BLOCK", 8)
        calls = []

        def sample(*args):
            out = sample.real(*args)
            calls.append([to_dict(s) for s in out[0]])
            return out

        sample.real = audit._sample
        monkeypatch.setattr(audit, "_sample", sample)
        cfg = AuditConfig(dims=(3, 8), samples=30, seed=2**32, domain=domain)
        resamples = 0
        for law in LAW_IDS:
            for dim in cfg.dims:
                calls.clear()
                got = audit_law(law, cfg, dim)
                cex = got.counterexample
                replayed = [] if cex is None else [cex["operands"]]
                assert calls == replayed, (law, dim)
                assert got == ref_audit_law(law, cfg, dim), (law, dim)
                resamples += got.resamples
        assert resamples > 0

    @pytest.mark.parametrize("domain", list(Domain))
    def test_each_block_is_seeded_once_by_audit_law(self, domain, monkeypatch):
        # redraws and rejections run past their block's words; _read
        # computes more words from the seed words the block computed, so the
        # seed words are computed once a block, for its own samples
        monkeypatch.setattr(audit, "_ANGLE_MARGIN", 0.3)
        monkeypatch.setattr(audit, "_BLOCK", 8)
        seedings, extended = [], []

        def seed_words(seed, code, dim, i0, m):
            seedings.append((sys._getframe(1).f_code.co_name, seed, code, dim, i0, m))
            return seed_words.real(seed, code, dim, i0, m)

        def stream_words(*args):
            extended.append(sys._getframe(1).f_code.co_name == "_read")
            return stream_words.real(*args)

        seed_words.real, stream_words.real = audit._seed_words, audit._stream_words
        monkeypatch.setattr(audit, "_seed_words", seed_words)
        monkeypatch.setattr(audit, "_stream_words", stream_words)
        cfg = AuditConfig(dims=(3, 8), samples=30, seed=2**32, domain=domain)
        blocks = [(i0, min(8, cfg.samples - i0)) for i0 in range(0, cfg.samples, 8)]
        for code, law in enumerate(LAW_IDS):
            for dim in cfg.dims:
                seedings.clear()
                audit_law(law, cfg, dim)
                assert seedings == [("audit_law", cfg.seed, code, dim, i0, m) for i0, m in blocks], (law, dim)
        assert any(extended)

    @pytest.mark.parametrize("domain", list(Domain))
    def test_every_attempt_is_drawn_once(self, domain, monkeypatch):
        # a block draws every attempt of its samples once, redraws included,
        # and the counterexample replay draws nothing: the rows drawn are the
        # operands and the redraws, and the rounds of a block read its
        # words attempt after attempt, so redraw rounds start past the first
        # attempts
        monkeypatch.setattr(audit, "_ANGLE_MARGIN", 0.3)
        monkeypatch.setattr(audit, "_BLOCK", 8)
        rows, starts = [], []

        def draw(K, u, *args):
            rows.append(len(u))
            return draw.real(K, u, *args)

        def read(seeds, raw, todo, start, count):
            if sys._getframe(1).f_code.co_name == "_draw_block":
                starts.append((start, count))
            return read.real(seeds, raw, todo, start, count)

        draw.real, read.real = audit._draw, audit._read
        monkeypatch.setattr(audit, "_draw", draw)
        monkeypatch.setattr(audit, "_read", read)
        cfg = AuditConfig(dims=(3, 8), samples=30, seed=2**32, domain=domain)
        redrawn = False
        for law in LAW_IDS:
            spec = audit._LAWS[law]
            for dim in cfg.dims:
                rows.clear()
                starts.clear()
                got = audit_law(law, cfg, dim)
                assert sum(rows) == spec.operands * cfg.samples + got.resamples, (law, dim)
                # round r of a block reads attempt r, words r*w ... (r+1)*w - 1
                w = audit._words(spec, dim, domain)[0] // spec.operands
                assert all(count == w and start % w == 0 for start, count in starts)
                r = [start // w for start, _ in starts]
                assert all(b == a + 1 or (b == 0 and a >= spec.operands - 1) for a, b in zip(r, r[1:] + [0]))
                redrawn |= max(r) >= spec.operands
        assert redrawn

    def test_redraws_are_bounded(self, monkeypatch):
        # at most _MAX_REDRAWS attempts in a row may be near singular; here a
        # sample's operand takes four attempts, and nothing is away from the
        # seams of a margin of 10
        monkeypatch.setattr(audit, "_ANGLE_MARGIN", 0.3)
        cfg = AuditConfig(dims=(8,), samples=30, seed=2**32, domain=Domain.POSITIVE_RESTRICTED)
        monkeypatch.setattr(audit, "_MAX_REDRAWS", 4)
        assert audit_law("mul_associative", cfg, 8).resamples == 52
        monkeypatch.setattr(audit, "_MAX_REDRAWS", 3)
        with pytest.raises(RuntimeError, match="exhausted redraws for a non-singular operand"):
            audit_law("mul_associative", cfg, 8)
        monkeypatch.undo()
        monkeypatch.setattr(audit, "_ANGLE_MARGIN", 10.0)
        with pytest.raises(RuntimeError, match="exhausted redraws for a non-singular operand"):
            audit_law("mul_associative", cfg, 8)

    @pytest.mark.parametrize("dim", [0, 1, -3, audit.MAX_DIM + 1, 5000, 3.7, 2.5, "3"])
    def test_audit_law_checks_its_dimension_as_the_config_does(self, dim):
        with pytest.raises(ValueError) as config:
            AuditConfig(dims=(dim,))
        with pytest.raises(ValueError) as cell:
            audit_law("add_commutative", AuditConfig(samples=2), dim)
        assert str(cell.value) == str(config.value)


# ---------------------------------------------------------------------------
# run_audit splits its cells over the usable CPUs, one forked worker per CPU
# past the first; os.sched_getaffinity is what it asks.

def cpus(monkeypatch, n):
    monkeypatch.setattr(audit.os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


def without_stamp(report):
    payload = report_to_dict(report)
    del payload["generated_at"]
    return json.dumps(payload)


def failing_cells(monkeypatch, failing):
    """audit_law raising ``ValueError(f"cell {law} {dim}")`` on the cells of ``failing``."""
    real = audit.audit_law

    def audit_law(law, cfg, dim):
        if (law, dim) in failing:
            raise ValueError(f"cell {law} {dim}")
        return real(law, cfg, dim)

    monkeypatch.setattr(audit, "audit_law", audit_law)


class TestSplit:
    CELLS = [(law, dim) for law in LAW_IDS for dim in (2, 3, 4, 8)]

    @pytest.fixture(autouse=True)
    def deadline(self):
        """A waiting parent fails its test after 60 s; a forked worker inherits no alarm."""
        def expire(signum, frame):
            raise TimeoutError("the audit still waits for its workers after 60 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(60)
        yield
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

    @pytest.mark.parametrize("seed", [42, 7])
    @pytest.mark.parametrize("domain", list(Domain))
    def test_reports_are_byte_identical_on_any_cpu_count(self, seed, domain, monkeypatch):
        cfg = AuditConfig(dims=(2, 3, 4, 8), samples=40, seed=seed, domain=domain)
        one = [audit_law(law, cfg, dim) for law, dim in self.CELLS]  # one process, cell by cell
        texts = set()
        for n in (1, 2, 3):
            cpus(monkeypatch, n)
            report = run_audit(cfg)
            assert list(report.results) == one, n
            texts.add(without_stamp(report))
            assert no_children_left()
        assert len(texts) == 1

    @pytest.mark.parametrize("n", [2, 3])
    def test_the_shares_cover_every_cell_once_largest_first(self, n):
        cfg = AuditConfig(dims=(2, 3, 4, 8), samples=400)
        shares = audit._shares(cfg, self.CELLS, n)
        assert len(shares) == n and all(share == sorted(share) for share in shares)
        assert sorted(i for share in shares for i in share) == list(range(len(self.CELLS)))

        def cost(i):
            law, dim = self.CELLS[i]
            spec = audit._LAWS[law]
            return cfg.samples * audit._words(spec, dim, cfg.domain)[1] * (1 + len(spec.ints))

        loads = [sum(map(cost, share)) for share in shares]
        # greedy largest-first: no share exceeds another by more than its smallest cell
        assert max(loads) - min(loads) <= max(min(map(cost, share)) for share in shares)
        assert audit._shares(cfg, self.CELLS[:1], 1) == [[0]]

    def test_one_cpu_or_no_affinity_call_forks_nothing(self, monkeypatch):
        cfg = AuditConfig(dims=(2, 3), samples=5)
        monkeypatch.setattr(audit.os, "fork", lambda: pytest.fail("forked"))
        cpus(monkeypatch, 1)
        one = without_stamp(run_audit(cfg))
        monkeypatch.delattr(audit.os, "sched_getaffinity")  # macOS, Windows
        assert without_stamp(run_audit(cfg)) == one
        cpus(monkeypatch, 4)  # one cell: one process
        assert len(run_audit(AuditConfig(dims=(2,), samples=5), ["add_commutative"]).results) == 1

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_a_cell_exception_is_the_earliest_failing_cells(self, n, monkeypatch):
        cfg = AuditConfig(dims=(2, 3, 4, 8), samples=10)
        shares = audit._shares(cfg, self.CELLS, 3)
        early, late = min(shares[1]), max(shares[0])  # a worker's cell before the parent's
        assert early < late
        failing_cells(monkeypatch, {self.CELLS[early], self.CELLS[late], self.CELLS[max(shares[2])]})
        cpus(monkeypatch, n)
        with pytest.raises(ValueError) as exc:
            run_audit(cfg)
        assert type(exc.value) is ValueError and str(exc.value) == "cell {} {}".format(*self.CELLS[early])
        assert no_children_left()

    def test_a_worker_that_dies_is_an_error(self, monkeypatch):
        parent, real = os.getpid(), audit.audit_law

        def audit_law(law, cfg, dim):
            if os.getpid() != parent:
                os._exit(5)
            return real(law, cfg, dim)

        monkeypatch.setattr(audit, "audit_law", audit_law)
        cpus(monkeypatch, 2)
        with pytest.raises(RuntimeError, match="an audit worker exited with status 5"):
            run_audit(AuditConfig(dims=(2, 3), samples=4), ["add_commutative"])
        assert no_children_left()

    def test_an_interrupt_kills_and_reaps_every_worker(self, monkeypatch):
        parent, started = os.getpid(), time.perf_counter()

        def audit_law(law, cfg, dim):
            if os.getpid() != parent:
                time.sleep(60)  # a worker still busy when the parent is interrupted
            raise KeyboardInterrupt

        monkeypatch.setattr(audit, "audit_law", audit_law)
        cpus(monkeypatch, 3)
        with pytest.raises(KeyboardInterrupt):
            run_audit(AuditConfig(dims=(2, 3, 4), samples=4), ["add_commutative"])
        assert no_children_left()
        assert time.perf_counter() - started < 30
