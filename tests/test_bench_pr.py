"""scripts/bench_pr.py's summary of a BENCH_<pr>.json record list."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pr.py"
_spec = importlib.util.spec_from_file_location("bench_pr", SCRIPT)
bench_pr = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pr)


def record(label, workload, **metrics):
    values = {name: {"value": v, "unit": ""} for name, v in metrics.items()}
    return {"label": label, "workload": workload, "result": {"metrics": values}}


def test_summary_gives_each_sides_median_and_quartile_spread():
    records = [
        record("parent", "audit", ops_per_s=10.0, peak_rss_mb=30.0),
        record("change", "audit", ops_per_s=20.0, peak_rss_mb=31.0),
        record("parent", "audit", ops_per_s=30.0, peak_rss_mb=30.0),
        {"label": "change", "workload": "audit", "exit_code": 1, "stderr": "boom"},
        record("change", "audit", ops_per_s=24.0, peak_rss_mb=31.0),
        record("parent", "audit", ops_per_s=20.0, peak_rss_mb=30.0),
        record("parent", "audit", ops_per_s=40.0, peak_rss_mb=30.0),
        record("change", "eval_cli", latency_p50_ms=100.0, untracked=1.0),
        record("parent", "eval_cli", latency_p50_ms=90.0),
    ]
    metrics = ["ops_per_s", "latency_p50_ms", "peak_rss_mb"]
    assert bench_pr.summary(records, metrics) == [
        # parent: 10, 20, 30, 40 has quartiles 17.5 and 32.5 (inclusive)
        "audit ops_per_s parent: median 25, IQR 15 [17.5, 32.5], 4 runs",
        "audit ops_per_s change: median 22, IQR 2 [21, 23], 2 runs",
        "audit peak_rss_mb parent: median 30, IQR 0 [30, 30], 4 runs",
        "audit peak_rss_mb change: median 31, IQR 0 [31, 31], 2 runs",
        "eval_cli latency_p50_ms change: median 100, IQR 0 [100, 100], 1 runs",
        "eval_cli latency_p50_ms parent: median 90, IQR 0 [90, 90], 1 runs",
    ]


def test_pair_counts_count_the_seeds_where_the_change_read_better():
    runs = [  # seed, parent's and change's ops_per_s and peak_rss_mb; None: a failed run
        (1, (10.0, 30.0), (12.0, 29.0)),
        (2, (11.0, 30.0), (11.0, 29.0)),  # a tie in ops_per_s counts for neither side
        (3, (12.0, 30.0), None),  # no pair
        (4, (9.0, 30.0), (13.0, 29.0)),
    ]
    records = []
    for seed, parent, change in runs:
        for label, got in (("parent", parent), ("change", change)):
            if got is None:
                records.append({"label": label, "workload": "audit", "seed": seed, "exit_code": 1})
            else:
                records.append({**record(label, "audit", ops_per_s=got[0], peak_rss_mb=got[1]), "seed": seed})
    records.append({**record("other", "audit", ops_per_s=99.0), "seed": 1})  # neither side
    better = {"ops_per_s": "higher", "latency_p50_ms": "lower", "peak_rss_mb": "lower"}
    assert bench_pr.pair_counts(records, better) == [
        # change runs 12, 11, 13 against parent runs 10, 11, 12, 9
        "audit ops_per_s: change better in 2 of 3 pairs; every change run beat every parent run: no",
        "audit peak_rss_mb: change better in 3 of 3 pairs; every change run beat every parent run: yes",
    ]
    assert bench_pr.better()["ops_per_s"] == "higher" and bench_pr.better()["peak_rss_mb"] == "lower"


def test_summary_covers_the_benchmarks_end_to_end_metrics():
    assert bench_pr.end_to_end_metrics() == [
        "setup_s", "ops_per_s", "latency_p50_ms", "latency_p90_ms", "peak_rss_mb", "passed_ratio"]


def test_workloads_and_run_length_are_the_benchmarks():
    assert bench_pr.workloads() == ("audit", "eval_cli", "expr_batch")
    assert bench_pr.run_seconds() == 40.0
    with pytest.raises(SystemExit) as exit_:
        bench_pr.main(["--pr", "0", "--workload", "bogus", "--seed", "1"])
    assert exit_.value.code == 2


def test_each_run_lasts_the_benchmarks_run_seconds(monkeypatch, tmp_path):
    calls = []

    def fake_run(argv, **kwargs):
        calls.append(argv)
        return subprocess.CompletedProcess(argv, 0, '{"env": 1}\n{"metrics": {}}\n', "")

    monkeypatch.setattr(bench_pr.subprocess, "run", fake_run)
    assert bench_pr.run_once(tmp_path, "expr_batch", 5, 0) == {"env": 1, "result": {"metrics": {}}}
    argv = calls[0]
    assert argv[argv.index("--workload") + 1] == "expr_batch"
    assert argv[argv.index("--seconds") + 1] == "40.0"


def test_a_run_whose_lines_are_not_json_is_recorded_as_failed(monkeypatch, tmp_path):
    # the first run exits 0 but its last line is not JSON; it is recorded as
    # failed, and the next run is still made and recorded
    outputs = iter(['{"env": 1}\nnot json\n', '{"env": 1}\n[1]\n', '{"env": 2}\n{"metrics": {}}\n'])

    def fake_run(argv, **kwargs):
        return subprocess.CompletedProcess(argv, 0, next(outputs), "a warning\n")

    monkeypatch.setattr(bench_pr.subprocess, "run", fake_run)
    monkeypatch.setattr(bench_pr, "bench_path", lambda pr: tmp_path / f"BENCH_{pr}.json")
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").touch()
    argv = ["--pr", "0", "--workload", "audit", "--seed", "1", "2", "3", "--side", f"change={tmp_path}"]
    assert bench_pr.main(argv) == 0
    first, second, third = bench_pr.load(tmp_path / "BENCH_0.json")
    assert first["exit_code"] == 0 and first["stderr"] == "a warning\n"
    assert first["stdout"] == '{"env": 1}\nnot json\n' and "result" not in first
    assert second["exit_code"] == 0 and "result" not in second
    assert third["seed"] == 3 and third["env"] == 2 and third["result"] == {"metrics": {}}
