import json
import math

import pytest

from hyperspace import algebra
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
    _sample_rng,
)
from hyperspace.core import Tolerance, from_dict

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
        a = _sample_rng(42, "distributive", 3, 7).uniform(-1, 1, 4)
        _ = _sample_rng(42, "distributive", 3, 99).uniform(-1, 1, 4)
        b = _sample_rng(42, "distributive", 3, 7).uniform(-1, 1, 4)
        assert list(a) == list(b)

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
        from hyperspace.space3 import from_dict3, mul3, mul3_coeffs, approx_eq3

        result = audit_law("space3_mul_agreement", AuditConfig(dims=(3,), samples=50), 3)
        assert result.passes < result.samples
        s1, s2 = (from_dict3(d) for d in result.counterexample["operands"])
        assert not approx_eq3(mul3_coeffs(s1, s2).assembled, mul3(s1, s2))


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
