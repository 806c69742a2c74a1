"""scripts/bench_pr.py's summary of a BENCH_<pr>.json record list."""

import importlib.util
from pathlib import Path

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


def test_summary_covers_the_benchmarks_end_to_end_metrics():
    assert bench_pr.end_to_end_metrics() == [
        "setup_s", "ops_per_s", "latency_p50_ms", "latency_p90_ms", "peak_rss_mb", "passed_ratio"]
