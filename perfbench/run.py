"""The hyperspace benchmark: one command, three workloads.

    python3 perfbench/run.py --workload {audit,eval_cli,expr_batch}
                             --seed N --seconds S --trace {0,1} [--quick]

Run it from anywhere inside a checkout; it imports the package from the
checkout's ``src/``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the environment.  ``--trace 0`` measures the end-to-end metrics
of the workload; ``--trace 1`` reports the per-layer metrics instead (see
README.md for the layer table).  ``--quick`` shrinks every size for the
benchmark's own tests.

Every workload is a closed loop with one client and one operation in flight:
each user of this tool waits for each result, and the reference machine has
2 cores.  Each timing is a percentile or a best time over the repetitions
within a run; README.md says which, and why.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("audit", "eval_cli", "expr_batch")
AUDIT_DIMS = (2, 3, 4, 8)
DOMAINS = ("unrestricted", "positive_restricted")
# The README's normative laws: each must pass every sample.
NORMATIVE = frozenset({
    "add_commutative", "add_associative", "mul_commutative", "mul_associative",
    "conj_modulus", "n2_classic_equiv", "roots_correct", "demoivre", "space3_conj_modulus",
})
# What each workload imports before its first operation.
SETUP_IMPORTS = {
    "audit": "hyperspace.cli, hyperspace.audit",
    "eval_cli": "hyperspace.cli",
    "expr_batch": "hyperspace.expr",
}
SIZES = {
    "full": {"audit_samples": 400, "audit_jobs": 4, "eval_pool": 54, "expr_pool": 300,
             "setup_probes": 7, "trace_audit_samples": 40, "repeats": 5, "law_samples": 100},
    "quick": {"audit_samples": 5, "audit_jobs": 4, "eval_pool": 12, "expr_pool": 30,
              "setup_probes": 2, "trace_audit_samples": 2, "repeats": 1, "law_samples": 5},
}
CHILD_TIMEOUT_S = 150.0


@dataclass
class Exit:
    start: float
    wall: float
    code: int
    rss_mb: float
    stdout: str
    stderr: str


class Spawner:
    """Runs one child at a time and records wall time and peak RSS."""

    def __init__(self, tmp: Path):
        self.out, self.err = tmp / "child.out", tmp / "child.err"
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))

    def run(self, argv: list[str]) -> Exit:
        with open(self.out, "wb") as fo, open(self.err, "wb") as fe:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=fo, stderr=fe,
                                    env=self.env, cwd=ROOT)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Exit(start, wall, proc.returncode, usage.ru_maxrss / 1024.0,
                    self.out.read_text(encoding="utf-8", errors="replace"),
                    self.err.read_text(encoding="utf-8", errors="replace"))

    def python(self, *args: str) -> Exit:
        return self.run([sys.executable, *args])


def quantile(xs: list[float], q: float) -> float:
    xs = sorted(xs)
    if len(xs) == 1:
        return xs[0]
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def at_reference_speed(timings: dict, slowdown: float, **probes: float) -> dict:
    """The run's timings as they would read on the reference host, given how
    much slower than there a probe of their kind ran (hostspeed.py).  The
    measured timings go to the environment line under ``host``."""
    return {
        "ops_per_s": timings["ops_per_s"] * slowdown,
        "latency_p50_ms": timings["latency_p50_ms"] / slowdown,
        "latency_p90_ms": timings["latency_p90_ms"] / slowdown,
        "host": {**probes, **{f"unscaled_{k}": v for k, v in timings.items()}},
    }


# ---------------------------------------------------------------------------
# end-to-end workloads

class SetupProbes:
    """``setup_s``: the time from spawn until a fresh interpreter has imported
    what the workload uses.  The probes are spread evenly over the run, so a
    slow spell of the machine moves few of them; one extra probe first warms
    the bytecode cache.

    When the imports load numpy, each probe is followed by the reference
    process start of hostspeed.py, and ``slowdown`` says how much slower
    than on the reference host those starts ran in this run."""

    def __init__(self, sp: Spawner, workload: str, count: int, seconds: float):
        self.sp, self.count = sp, count
        self.code = (f"import time, sys\nimport {SETUP_IMPORTS[workload]}\n"
                     "sys.stdout.write(f\"{time.perf_counter()!r} {int('numpy' in sys.modules)}\")")
        self.interval = seconds / count
        self.times: list[float] = []
        self.starts: list[float] = []
        self.loads_numpy = False
        self.probe()
        self.times.clear()
        self.starts.clear()
        self.next = time.perf_counter()

    def probe(self) -> None:
        ex = self.sp.python("-c", self.code)
        if ex.code != 0:
            raise RuntimeError(f"setup probe failed: {ex.stderr.strip()}")
        stamp, numpy_loaded = ex.stdout.split()
        self.times.append(float(stamp) - ex.start)
        self.loads_numpy = numpy_loaded == "1"
        if self.loads_numpy:
            self.reference_start()

    def reference_start(self) -> None:
        self.starts.append(self.sp.python(*hostspeed.START_ARGS).wall)

    def slowdown(self) -> float:
        if not self.starts:
            return 1.0
        return statistics.median(self.starts) / hostspeed.START_REFERENCE_S

    def due(self) -> None:
        """Probe when the next slot of the run has come."""
        if len(self.times) < self.count and time.perf_counter() >= self.next:
            self.probe()
            self.next += self.interval

    def median(self) -> float:
        while len(self.times) < self.count:
            self.probe()
        return statistics.median(self.times)


def _audit_argv(seed: int, samples: int, domain: str, out: Path) -> list[str]:
    dims = [x for d in AUDIT_DIMS for x in ("--dim", str(d))]
    return ["audit", *dims, "--samples", str(samples), "--seed", str(seed),
            "--domain", domain, "--out", str(out)]


def check_audit_report(text: str, code: int, seed: int, samples: int, domain: str) -> list[str]:
    """Problems with one ``hsc audit`` report (empty when it is correct)."""
    from hyperspace.core import from_dict
    from hyperspace.space3 import from_dict3

    try:
        report = json.loads(text)
        cfg = report["config"]
        results = report["results"]
    except (ValueError, KeyError) as exc:
        return [f"unreadable report: {exc}"]
    problems = []
    if (cfg["dims"], cfg["samples"], cfg["seed"], cfg["domain"]) != (list(AUDIT_DIMS), samples, seed, domain):
        problems.append(f"config echoed wrongly: {cfg}")
    cells = {(r["law"], r["dim"]) for r in results}
    if len(cells) != len(results) or len(results) != len(cfg["laws"]) * len(AUDIT_DIMS) \
            or not NORMATIVE <= set(cfg["laws"]):
        problems.append("report does not hold one cell per (law, dim)")
    failing = False
    for r in results:
        cell = f"{r['law']}@{r['dim']}"
        if r["samples"] != samples or not 0 <= r["passes"] <= samples:
            problems.append(f"{cell}: bad tallies")
        if r["passes"] == r["samples"]:
            if r["counterexample"] is not None:
                problems.append(f"{cell}: counterexample on a passing cell")
            continue
        failing = True
        if r["law"] in NORMATIVE:
            problems.append(f"{cell}: normative law failed {r['samples'] - r['passes']} samples")
        cex = r["counterexample"]
        try:
            for op in cex["operands"]:
                (from_dict3 if op["kind"].startswith("space3") else from_dict)(op)
            if not 0 <= cex["sample_index"] < samples:
                raise ValueError("sample index out of range")
        except (TypeError, KeyError, ValueError) as exc:
            problems.append(f"{cell}: counterexample does not decode: {exc}")
    if code != (3 if failing else 0):
        problems.append(f"exit code {code} with failing cells={failing}")
    return problems


def run_audit(sp: Spawner, probes: SetupProbes, seed: int, seconds: float, size: dict, tmp: Path):
    """Jobs alternate the two domains, whose costs differ, so each timing is
    taken per domain and the two are combined as one job of each.

    A job is seconds of pure-Python arithmetic, so its wall time follows the
    host's slow spells, which outlast a run.  A fixed probe of the host's
    speed (hostspeed.py) runs before every job, and the timings are scaled
    to the probe's reference speed."""
    seed %= 2**64  # hsc audit takes an unsigned 64-bit seed
    report_path = tmp / "audit.json"
    samples = size["audit_samples"]
    first_report: dict[str, str] = {}
    rates: dict[str, list[float]] = {d: [] for d in DOMAINS}
    walls: dict[str, list[float]] = {d: [] for d in DOMAINS}
    rss, problems, host = [], [], []
    jobs = failed = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or jobs < size["audit_jobs"]:
        probes.due()
        host += [hostspeed.probe() for _ in range(3)]
        domain = DOMAINS[jobs % 2]
        jobs += 1
        ex = sp.python("-m", "hyperspace", *_audit_argv(seed, samples, domain, report_path))
        walls[domain].append(ex.wall)
        rss.append(ex.rss_mb)
        text = report_path.read_text(encoding="utf-8") if report_path.exists() else ""
        report_path.unlink(missing_ok=True)
        faults = check_audit_report(text, ex.code, seed, samples, domain)
        stable = re.sub(r'"generated_at": "[^"]*"', "", text)
        if first_report.setdefault(domain, stable) != stable:
            faults.append(f"{domain}: report differs from the first one of this seed")
        if faults:
            failed += 1
            problems += faults
        with contextlib.suppress(ValueError, KeyError, TypeError):
            rates[domain].append(sum(r["samples"] for r in json.loads(text)["results"]) / ex.wall)
    # Throughput is each domain's median job: a best job tracks the host's
    # fastest spell, which comes and goes between runs.
    typical = [statistics.median(rates[d]) if rates[d] else 0.0 for d in DOMAINS]
    metrics = at_reference_speed({
        # samples per second over one job of each domain
        "ops_per_s": 0.0 if 0.0 in typical else len(DOMAINS) / sum(1 / r for r in typical),
        "latency_p50_ms": statistics.mean(statistics.median(walls[d]) for d in DOMAINS) * 1e3,
        "latency_p90_ms": statistics.mean(quantile(walls[d], 0.9) for d in DOMAINS) * 1e3,
    }, statistics.median(host) / hostspeed.REFERENCE_S, probe_ms=statistics.median(host) * 1e3)
    metrics["peak_rss_mb"] = statistics.median(rss)
    return jobs, failed, not problems, metrics, problems


def run_eval_cli(sp: Spawner, probes: SetupProbes, seed: int, seconds: float, size: dict, tmp: Path):
    """A request is mostly a process start that loads numpy, so after every
    third request the reference start of hostspeed.py runs too, and the
    timings are scaled to its reference speed (as ``setup_s`` is)."""
    import pools

    requests = pools.eval_requests(seed, size["eval_pool"])
    records = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(records) < len(requests):
        probes.due()
        k = len(records) % len(requests)
        records.append((k, sp.python("-m", "hyperspace", *requests[k]["argv"])))
        if probes.loads_numpy and len(records) % 3 == 0:
            probes.reference_start()
    # One operation is one request of the pool, run one or more times; it
    # failed if any of its runs did, so the counts depend on the seed only.
    failing, wrong, problems = set(), 0, []
    for k, ex in records:
        item = requests[k]
        if "error" in item:
            ok = pools.check_error(item, ex.code, ex.stderr)
            wrong += ex.code == 0
        else:
            ok = ex.code == 0 and pools.check_value(item, ex.stdout)
            wrong += not ok
        if not ok and k not in failing:
            failing.add(k)
            tail = ex.stderr.strip().splitlines()[-1:] or [ex.stdout.strip()[:120]]
            problems.append(f"{item.get('error', 'value')}: exit {ex.code}: {tail[0][:160]}")
    walls = [ex.wall for _, ex in records]
    metrics = at_reference_speed({
        "ops_per_s": len(walls) / sum(walls),
        "latency_p50_ms": statistics.median(walls) * 1e3,
        "latency_p90_ms": quantile(walls, 0.9) * 1e3,
    }, probes.slowdown())
    metrics["peak_rss_mb"] = statistics.median(ex.rss_mb for _, ex in records)
    return len(requests), len(failing), wrong == 0, metrics, problems


def run_expr_batch(sp: Spawner, probes: SetupProbes, seed: int, seconds: float, size: dict,
                   tmp: Path):
    """One worker process per slot between setup probes; together they run
    for ``seconds``.  Every output must match the first slot's."""
    import pools

    pool = pools.expr_pool(seed, size["expr_pool"])
    job, out = tmp / "expr_job.json", tmp / "expr_out.json"
    job.write_text(json.dumps({"items": [(i["text"], i["cw"]) for i in pool],
                               "seconds": seconds / probes.count}))
    outputs, latencies, differing, rss = None, [[] for _ in pool], [0] * len(pool), []
    for _ in range(probes.count):
        probes.due()
        ex = sp.python(str(HERE / "worker.py"), "expr", str(job), str(out))
        if ex.code != 0:
            raise RuntimeError(f"expr worker failed: {ex.stderr.strip()[-400:]}")
        res = json.loads(out.read_text())
        outputs = outputs or res["outputs"]
        for i, (text, lat) in enumerate(zip(res["outputs"], res["latencies"])):
            latencies[i] += lat
            differing[i] += res["differing"][i] + (len(lat) if text != outputs[i] else 0)
        rss.append(ex.rss_mb)
    # One operation is one expression of the pool, as in eval_cli.
    failed, problems = 0, []
    for item, text, diff in zip(pool, outputs, differing):
        if not pools.check_value(item, text):
            failed += 1
            problems.append(f"{item['oracle']} oracle disagrees: {item['text'][:80]} -> {text[:80]}")
        elif diff:
            failed += 1
            problems.append(f"output changed between repetitions: {item['text'][:80]}")
    # Each expression's best time in the run (timeit's convention): on a
    # shared host the same pass runs up to 2x slower from second to second,
    # and every expression repeats often enough to meet a quiet moment.
    best = [min(lat) for lat in latencies]
    metrics = {
        "ops_per_s": len(best) / sum(best),
        "latency_p50_ms": statistics.median(best) * 1e3,
        "latency_p90_ms": quantile(best, 0.9) * 1e3,
        "peak_rss_mb": max(rss),
    }
    return len(pool), failed, not problems, metrics, problems


RUNNERS = {"audit": run_audit, "eval_cli": run_eval_cli, "expr_batch": run_expr_batch}
UNITS = {"ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms", "peak_rss_mb": "MB"}


def untraced(sp: Spawner, args, size: dict, tmp: Path, env: dict) -> dict:
    probes = SetupProbes(sp, args.workload, size["setup_probes"], args.seconds)
    attempted, failed, correct, values, problems = RUNNERS[args.workload](
        sp, probes, args.seed, args.seconds, size, tmp)
    for line in problems[:20]:
        print(f"perfbench: {args.workload}: {line}", file=sys.stderr)
    host = values.pop("host", {})
    setup = probes.median()
    if probes.starts:
        host.update(start_ms=probes.slowdown() * hostspeed.START_REFERENCE_S * 1e3,
                    unscaled_setup_s=setup)
    if host:
        env["host_speed"] = host
    metrics = {name: metric(values[name], unit) for name, unit in UNITS.items()}
    metrics["setup_s"] = metric(setup / probes.slowdown(), "s")
    # failed_ratio's complement: a metric that is never zero
    metrics["passed_ratio"] = metric((attempted - failed) / attempted, "ratio")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


# ---------------------------------------------------------------------------
# traced run

_IMPORT_PROBE = """import contextlib, io, sys, time
t0 = time.perf_counter()
import hyperspace.cli
t1 = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()):
    hyperspace.cli.main(["eval", "c[1,1] * c[1,1]"])
sys.stdout.write(f"{(t1 - t0) * 1e3!r} {int('numpy' in sys.modules)}")
"""

LAYER_UNITS = {"_us": "us", "_ms": "ms", ".self_s": "s", ".calls": "count",
               "resamples": "count", "numpy_loaded": "count", "overhead_ratio": "ratio"}


def _layer_unit(name: str) -> str:
    for suffix, unit in LAYER_UNITS.items():
        if suffix in name:
            return unit
    raise KeyError(name)


def traced(sp: Spawner, args, size: dict, tmp: Path, env: dict) -> dict:
    import pools

    exprs = pools.expr_pool(args.seed, size["expr_pool"])
    requests = pools.eval_requests(args.seed, size["eval_pool"])
    OUT.mkdir(exist_ok=True)
    job = {
        "workload": args.workload,
        "seed": args.seed,
        "repeats": size["repeats"],
        "law_samples": size["law_samples"],
        "exprs": [(i["text"], i["cw"]) for i in exprs],
        "valid_argvs": [r["argv"] for r in requests if "error" not in r],
        "argvs": [r["argv"] for r in requests],
        "audit_argvs": [_audit_argv(args.seed % 2**64, size["trace_audit_samples"], d,
                                    tmp / "trace_audit.json")
                        for d in DOMAINS],
        "spans_path": str(OUT / f"spans-{args.workload}-{args.seed}.tsv"),
    }
    job_path, out_path = tmp / "trace_job.json", tmp / "trace_out.json"
    job_path.write_text(json.dumps(job))
    ex = sp.python(str(HERE / "worker.py"), "trace", str(job_path), str(out_path))
    if ex.code != 0:
        raise RuntimeError(f"trace worker failed: {ex.stderr.strip()[-400:]}")
    values = json.loads(out_path.read_text())
    ops, raised = values.pop("ops"), values.pop("raised")

    bare, imports, numpy_loaded = [], [], []
    for _ in range(size["setup_probes"]):
        bare.append(sp.python("-c", "pass").wall * 1e3)
        probe = sp.python("-c", _IMPORT_PROBE)
        ms, loaded = probe.stdout.split()
        imports.append(float(ms))
        numpy_loaded.append(int(loaded))
    values["cli.interpreter_ms"] = statistics.median(bare)
    values["cli.import_ms"] = statistics.median(imports)
    values["cli.numpy_loaded"] = max(numpy_loaded)
    metrics = {name: metric(v, _layer_unit(name)) for name, v in sorted(values.items())}
    return {"correct": True, "attempted": ops, "failed": raised, "metrics": metrics}


# ---------------------------------------------------------------------------
# environment and entry point

def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "hyperspace").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m_before": os.getloadavg()[0],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny sizes, for the benchmark's tests")
    args = parser.parse_args(argv)
    if not (SRC / "hyperspace" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC / 'hyperspace'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hyperspace

    if Path(hyperspace.__file__).resolve().parent != SRC / "hyperspace":
        print(f"perfbench: imported hyperspace from {hyperspace.__file__}, not {SRC}", file=sys.stderr)
        return 2
    env = environment()
    size = SIZES["quick" if args.quick else "full"]
    TMP.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=TMP))
    try:
        sp = Spawner(tmp)
        result = (traced if args.trace else untraced)(sp, args, size, tmp, env)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    env["loadavg_1m_after"] = os.getloadavg()[0]
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
