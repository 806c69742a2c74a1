"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import pools  # noqa: E402
import run as bench  # noqa: E402
import tracing  # noqa: E402


def _bench(workload: str, trace: int, seed: int = 3, seconds: int = 1) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), "--quick"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _declared(key: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[key]}


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric_with_its_unit(workload):
    result = _bench(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared("end_to_end")
    assert result["correct"] and result["attempted"] >= 1
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_traced_run_prints_every_per_layer_metric_with_its_unit(workload):
    result = _bench(workload, 1)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared("per_layer")
    assert result["metrics"]["trace.core.calls"]["value"] > 0


def test_operation_counts_depend_on_the_seed_not_the_run_length():
    short, longer = _bench("eval_cli", 0), _bench("eval_cli", 0, seconds=4)
    assert (short["attempted"], short["failed"]) == (longer["attempted"], longer["failed"])


def test_traced_counts_repeat_for_one_seed():
    def counts():
        m = _bench("audit", 1)["metrics"]
        return {k: v["value"] for k, v in m.items() if k.endswith(".calls") or k == "audit.resamples"}

    assert counts() == counts()


def test_unreached_layer_reports_zero_calls():
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    summary = tracer.summary()
    assert set(summary) == set(tracing.LAYERS)
    assert all(row["calls"] == 0 for row in summary.values())


def _perturb(value):
    if isinstance(value, (float, complex)):
        return value * (1 + 1e-6) + 1e-6
    if isinstance(value, (list, tuple)):
        return type(value)(_perturb(v) for v in value)
    return value  # form tags


def test_wrong_expected_value_is_caught_as_failed():
    from hyperspace import expr
    from hyperspace.core import Orientation

    pool = pools.expr_pool(3, 20)
    assert {item["oracle"] for item in pool} >= {"mpmath", "rotation"}
    for item in pool:
        o = Orientation.CLOCKWISE if item["cw"] else Orientation.ANTICLOCKWISE
        out = expr.format_value(expr.evaluate(expr.parse(item["text"]), o))
        assert pools.check_value(item, out), item["text"]
        wrong = dict(item, want=_perturb(item["want"]))
        assert not pools.check_value(wrong, out), item["text"]


def test_complex_oracle_and_eval_requests_agree_with_the_cli():
    from hyperspace import cli

    requests = pools.eval_requests(4, 40)
    assert "complex" in {r.get("oracle") for r in requests}
    for item in requests:
        if "error" in item:
            continue
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(item["argv"]) == 0
        assert pools.check_value(item, out.getvalue()), item["argv"]
        assert not pools.check_value(dict(item, want=_perturb(item["want"])), out.getvalue())


def test_error_outcomes_need_the_documented_exit_and_no_traceback():
    deep = {"code": 1, "offset": True}
    assert pools.check_error(deep, 1, "hsc: syntax error at offset 3000: nesting too deep\n")
    assert not pools.check_error(deep, 1, "Traceback (most recent call last):\nRecursionError\n")
    assert not pools.check_error({"code": 2, "offset": False}, 1, "hsc: overflow\n")


def test_audit_report_checks_catch_a_failing_normative_law():
    from hyperspace import audit

    result = audit.run_audit(audit.AuditConfig(dims=bench.AUDIT_DIMS, samples=3, seed=7))
    report = audit.report_to_dict(result)
    code = 3 if audit.has_failures(result) else 0
    text = json.dumps(report)
    assert bench.check_audit_report(text, code, 7, 3, "unrestricted") == []
    cell = next(r for r in report["results"] if r["law"] == "demoivre")
    cell["passes"] -= 1
    cell["counterexample"] = {"operands": [{"kind": "cartesian", "coeffs": [1.0]}], "sample_index": 0}
    problems = bench.check_audit_report(json.dumps(report), 3, 7, 3, "unrestricted")
    assert any("normative" in p for p in problems)
    assert any("decode" in p for p in problems)


def test_refuses_to_run_without_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "audit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
