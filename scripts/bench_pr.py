"""Run the benchmark on one or more checkouts and record every run in BENCH_<pr>.json.

    python3 scripts/bench_pr.py --pr N --workload audit --seed 501 502 503 \\
        --side parent=/path/to/parent-checkout --side change=. [--trace 0]

Each run is ``python3 <checkout>/perfbench/run.py --workload W --seed S
--seconds T --trace X``, W being one of BENCHMARK.json's ``workloads`` and T
its ``run_seconds``, so every checkout is measured with its own copy of the
benchmark.  For each seed and workload the sides run in turn, and the side
that goes first alternates from one seed to the next.  After every run
its environment line and result line are appended, under the side's label,
to the JSON list in BENCH_<pr>.json at the root of this repository; a run
that fails, or whose last two lines are not JSON objects, is recorded with
its exit code and the tails of its stderr and stdout, and the runs go on.
After the runs it prints, for every workload, end-to-end metric
(BENCHMARK.json's ``end_to_end``) and side in BENCH_<pr>.json, the median
and the spread between the quartiles over that side's recorded runs; then,
for every workload and end-to-end metric, at how many seeds run by both the
``parent`` and the ``change`` side the change read better, and whether every
change run beat every parent run.
"""

from __future__ import annotations

import argparse
import json
import operator
import statistics
import subprocess
import sys
from functools import cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@cache
def benchmark() -> dict:
    """BENCHMARK.json, which names the workloads, run length and metrics."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def workloads() -> tuple[str, ...]:
    return tuple(w["name"] for w in benchmark()["workloads"])


def run_seconds() -> float:
    return float(benchmark()["run_seconds"])


def bench_path(pr: int) -> Path:
    return ROOT / f"BENCH_{pr}.json"


def load(path: Path) -> list[dict]:
    return json.loads(path.read_text(encoding="utf-8")) if path.exists() else []


def append(path: Path, record: dict) -> None:
    records = load(path)
    records.append(record)
    path.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")


def run_once(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    """One benchmark run: its environment and result lines, or why it failed."""
    argv = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(run_seconds()), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=checkout)
    lines = proc.stdout.strip().splitlines()
    failed = {"exit_code": proc.returncode, "stderr": proc.stderr[-2000:], "stdout": proc.stdout[-2000:]}
    if proc.returncode != 0 or len(lines) < 2:
        return failed
    try:
        env, result = map(json.loads, lines[-2:])
    except ValueError:  # a line that is not JSON
        return failed
    if not isinstance(env, dict) or not isinstance(result, dict):
        return failed
    return {**env, "result": result}


def end_to_end_metrics() -> list[str]:
    return [m["name"] for m in benchmark()["end_to_end"]]


def better() -> dict[str, str]:
    """Each end-to-end metric's better direction, "lower" or "higher"."""
    return {m["name"]: m["better"] for m in benchmark()["end_to_end"]}


def summary(records: list[dict], metrics: list[str]) -> list[str]:
    """One line per workload, metric and side: the median, the spread between
    the quartiles, and the quartiles over the side's successful runs.
    Workloads come in name order, metrics in the given order, and sides in
    the order they were first recorded."""
    values: dict[tuple, list[float]] = {}
    for record in records:
        got = record.get("result", {}).get("metrics", {})
        for metric in metrics:
            if metric in got:
                key = (record["workload"], metrics.index(metric), record["label"])
                values.setdefault(key, []).append(got[metric]["value"])
    lines = []
    for (workload, m, label), vs in sorted(values.items(), key=lambda item: item[0][:2]):
        q1, median, q3 = statistics.quantiles(vs, n=4, method="inclusive") if len(vs) > 1 else vs * 3
        lines.append(f"{workload} {metrics[m]} {label}: median {median:.5g}, "
                     f"IQR {q3 - q1:.5g} [{q1:.5g}, {q3:.5g}], {len(vs)} runs")
    return lines


def pair_counts(records: list[dict], better: dict[str, str]) -> list[str]:
    """One line per workload and metric of ``better`` (its better direction,
    "lower" or "higher") that both the ``parent`` and the ``change`` side
    recorded: at how many of the seeds where both sides ran successfully the
    change read better (ties count for neither), and whether every change
    run beat every parent run.  A seed run twice on one side counts its last
    run.  Workloads come in name order, metrics in the order of ``better``."""
    runs: dict[tuple, dict] = {}  # (workload, metric, label) -> {seed: value}
    for record in records:
        for metric, got in record.get("result", {}).get("metrics", {}).items():
            if metric in better:
                key = (record["workload"], metric, record["label"])
                runs.setdefault(key, {})[record["seed"]] = got["value"]
    lines = []
    for workload in sorted({key[0] for key in runs}):
        for metric, direction in better.items():
            parent, change = (runs.get((workload, metric, side)) for side in ("parent", "change"))
            if not parent or not change:
                continue
            beats = operator.lt if direction == "lower" else operator.gt
            seeds = parent.keys() & change.keys()
            wins = sum(beats(change[seed], parent[seed]) for seed in seeds)
            every = all(beats(c, p) for c in change.values() for p in parent.values())
            lines.append(f"{workload} {metric}: change better in {wins} of {len(seeds)} pairs; "
                         f"every change run beat every parent run: {'yes' if every else 'no'}")
    return lines


def run(args) -> int:
    sides = []
    for side in args.side or [f"change={ROOT}"]:
        label, _, directory = side.partition("=")
        checkout = Path(directory or ".").resolve()
        if not label or not (checkout / "perfbench" / "run.py").is_file():
            print(f"bench_pr: --side wants LABEL=CHECKOUT with perfbench/run.py, got {side!r}",
                  file=sys.stderr)
            return 2
        sides.append((label, checkout))
    path = bench_path(args.pr)
    for i, seed in enumerate(args.seed):
        order = sides if i % 2 == 0 else sides[::-1]
        for workload in args.workload:
            for label, checkout in order:
                record = {"label": label, "workload": workload, "seed": seed,
                          "seconds": run_seconds(), "trace": args.trace}
                record.update(run_once(checkout, workload, seed, args.trace))
                append(path, record)
                ok = "result" in record
                print(f"{label} {workload} seed {seed}: {'recorded' if ok else 'FAILED'}", flush=True)
    records = load(path)
    print("\n".join(summary(records, end_to_end_metrics()) + pair_counts(records, better())))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True, help="writes BENCH_<pr>.json")
    parser.add_argument("--workload", nargs="+", choices=workloads(), default=["audit"])
    parser.add_argument("--seed", nargs="+", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--side", action="append", metavar="LABEL=CHECKOUT",
                        help="a checkout to measure (repeatable; default: change=this repository)")
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
