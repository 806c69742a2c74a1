"""In-process halves of the benchmark, run in a child process.

    python perfbench/worker.py expr  JOB OUT   timed expr_batch loop
    python perfbench/worker.py trace JOB OUT   layer timings and a traced pass

JOB is a JSON file written by run.py; OUT receives a JSON result.  The
child imports only what the mode uses, so its peak RSS is the program's.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import sys
import time


def _orientation(cw: bool):
    from hyperspace.core import Orientation

    return Orientation.CLOCKWISE if cw else Orientation.ANTICLOCKWISE


def run_expr(job: dict) -> dict:
    """parse -> evaluate -> format_value over the pool until the deadline."""
    from hyperspace import expr

    items = [(text, _orientation(cw)) for text, cw in job["items"]]
    clock = time.perf_counter
    first: list[str | None] = [None] * len(items)
    latencies: list[list[float]] = [[] for _ in items]
    differing = [0] * len(items)
    deadline = clock() + job["seconds"]
    while clock() < deadline or not latencies[-1]:
        for i, (text, o) in enumerate(items):
            t0 = clock()
            try:
                out = expr.format_value(expr.evaluate(expr.parse(text), o))
            except Exception as exc:  # a failed operation, judged by run.py
                out = f"!{type(exc).__name__}: {exc}"
            latencies[i].append(clock() - t0)
            if first[i] is None:
                first[i] = out
            elif out != first[i]:
                differing[i] += 1
    return {"outputs": first, "latencies": latencies, "differing": differing}


# ---------------------------------------------------------------------------
# per-layer timings

def _per_call_us(call, inputs, repeats: int) -> float:
    """Best over ``repeats`` of the mean time per call, cycling ``inputs``."""
    clock = time.perf_counter
    loops = 1
    while True:
        t0 = clock()
        for _ in range(loops):
            for args in inputs:
                call(*args)
        if clock() - t0 > 0.01:
            break
        loops *= 4
    samples = []
    for _ in range(repeats):
        t0 = clock()
        for _ in range(loops):
            for args in inputs:
                call(*args)
        samples.append((clock() - t0) / (loops * len(inputs)))
    return min(samples) * 1e6


def layer_timings(job: dict) -> dict:
    import random

    from hyperspace import algebra, audit, coeff_formulas, core, duality, expr, space3

    rng = random.Random(f"layers:{job['seed']}")
    reps = job["repeats"]
    ccw, cw = core.Orientation.ANTICLOCKWISE, core.Orientation.CLOCKWISE

    def coeffs(n):
        return tuple(rng.uniform(-1.0, 1.0) for _ in range(n))

    def carts(n, k=32):
        return [core.CartesianHC(coeffs(n)) for _ in range(k)]

    c3, d3, c8, d8 = carts(3), carts(3), carts(8), carts(8)
    pairs3 = list(zip(c3, d3))
    p3 = {o: [core.to_polar(c, o) for c in c3] for o in (ccw, cw)}
    p8 = [core.to_polar(c, ccw) for c in c8]
    q3 = list(zip(p3[ccw], [core.to_polar(c, ccw) for c in d3]))
    s3 = [space3.Space3(*coeffs(3)) for _ in range(32)]
    s3_pairs = list(zip(s3, s3[1:] + s3[:1]))
    near = [(c, core.CartesianHC(tuple(x * (1 + 1e-13) for x in c.coeffs))) for c in c3]

    m = {}

    def t(name, call, inputs):
        m[name] = _per_call_us(call, inputs, reps)

    t("core.cartesian_new_us", core.CartesianHC, [(c.coeffs,) for c in c3])
    t("core.polar_new_us", core.PolarHC, [(p.modulus, p.angles) for p in p3[ccw]])
    t("core.approx_eq_us.n3", core.approx_eq, near)
    for tag, o, cs, ps in (("ccw.n3", ccw, c3, p3[ccw]), ("cw.n3", cw, c3, p3[cw]),
                           ("ccw.n8", ccw, c8, p8)):
        t(f"core.to_polar_us.{tag}", core.to_polar, [(c, o) for c in cs])
        t(f"core.from_polar_us.{tag}", core.from_polar, [(p,) for p in ps])
    t("algebra.add_us.n3", algebra.add, pairs3)
    t("algebra.mul_us.n3", algebra.mul, pairs3)
    t("algebra.div_us.n3", algebra.div, pairs3)
    t("algebra.nth_roots_us.n3k6", algebra.nth_roots, [(c, 6) for c in c3])
    t("algebra.mul_polar_us.n3", algebra.mul_polar, q3)
    t("algebra.div_polar_us.n3", algebra.div_polar, q3)
    t("algebra.pow_int_polar_us.n3", algebra.pow_int_polar, [(p, 3) for p in p3[ccw]])
    t("algebra.nth_roots_polar_us.n3k6", algebra.nth_roots_polar, [(p, 6) for p in p3[ccw]])
    t("space3.to_polar3_us", space3.to_polar3, [(s,) for s in s3])
    t("space3.mul3_us", space3.mul3, s3_pairs)
    t("space3.mul3_coeffs_us", space3.mul3_coeffs, s3_pairs)
    t("coeff_formulas.mul_general_us.n3", coeff_formulas.mul_coeffs_general,
      [(a, b, ccw) for a, b in pairs3])
    t("coeff_formulas.mul_coordinate_us.n3", coeff_formulas.mul_coeffs_coordinate,
      [(a, b, ccw) for a, b in pairs3])
    t("coeff_formulas.div_general_us.n8", coeff_formulas.div_coeffs_general,
      [(a, b, ccw) for a, b in zip(c8, d8)])
    t("duality.lift_us.n3", duality.lift, [(c, 0.5) for c in c3])

    # audit: per-sample cost per law at N = 3, RNG setup, report rendering
    sample_rng = getattr(audit, "_sample_rng", None)
    m["audit.rng_setup_us"] = 0.0 if sample_rng is None else _per_call_us(
        sample_rng, [(job["seed"], audit.LAW_IDS[0], 3, i) for i in range(32)], reps)
    cfg = audit.AuditConfig(dims=(3,), samples=job["law_samples"], seed=job["seed"])
    resamples = 0
    for law in audit.LAW_IDS:
        times = []
        for _ in range(max(1, reps // 2)):
            t0 = time.perf_counter()
            result = audit.audit_law(law, cfg, 3)
            times.append((time.perf_counter() - t0) / cfg.samples)
        m[f"audit.sample_us.{law}"] = min(times) * 1e6
        resamples += result.resamples
    m["audit.resamples"] = resamples
    report = audit.run_audit(audit.AuditConfig(dims=(2, 3, 4, 8), samples=5, seed=job["seed"]))
    m["audit.report_json_ms"] = _per_call_us(audit.report_to_json, [(report,)], reps) / 1e3
    m["audit.report_markdown_ms"] = _per_call_us(audit.report_to_markdown, [(report,)], reps) / 1e3

    # expr: the three stages over the expr_batch pool, per expression
    texts = [(text, _orientation(cw)) for text, cw in job["exprs"]]
    stage = {"parse": [], "evaluate": [], "format": []}
    for _ in range(reps):
        t0 = time.perf_counter()
        trees = [expr.parse(text) for text, _ in texts]
        t1 = time.perf_counter()
        values = [expr.evaluate(tree, o) for tree, (_, o) in zip(trees, texts)]
        t2 = time.perf_counter()
        for v in values:
            expr.format_value(v)
        t3 = time.perf_counter()
        for key, dt in (("parse", t1 - t0), ("evaluate", t2 - t1), ("format", t3 - t2)):
            stage[key].append(dt / len(texts))
    for key, xs in stage.items():
        m[f"expr.{key}_us"] = min(xs) * 1e6

    # cli: in-process main() per valid eval_cli request
    from hyperspace import cli

    per_request = []
    for argv in job["valid_argvs"]:
        times = []
        for _ in range(3):
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = time.perf_counter()
                cli.main(argv)
                times.append(time.perf_counter() - t0)
        per_request.append(min(times))
    m["cli.main_us"] = statistics.median(per_request) * 1e6
    return m


# ---------------------------------------------------------------------------
# traced pass

def _workload_pass(job: dict):
    """The traced run's operations for one workload, as thunks."""
    if job["workload"] == "expr_batch":
        from hyperspace import expr

        def one(text, o):
            return lambda: expr.format_value(expr.evaluate(expr.parse(text), o))

        return [one(text, _orientation(cw)) for text, cw in job["exprs"]]

    from hyperspace import cli

    if job["workload"] == "eval_cli":
        argvs = job["argvs"]
    else:
        argvs = job["audit_argvs"]

    def call(argv):
        def run():
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                cli.main(argv)
        return run

    return [call(argv) for argv in argvs]


def _timed_pass(ops, op_id: list[int]) -> tuple[float, int]:
    """Wall time of one pass over ``ops`` and how many raised (a traceback
    in the CLI).  Values are judged by the untraced run."""
    raised = 0
    t0 = time.perf_counter()
    for i, run in enumerate(ops):
        op_id[0] = i
        try:
            run()
        except Exception:
            raised += 1
    return time.perf_counter() - t0, raised


def run_trace(job: dict) -> dict:
    from tracing import Tracer

    metrics = layer_timings(job)
    ops = _workload_pass(job)
    tracer = Tracer()
    _timed_pass(ops, tracer.op)  # warm-up
    untraced, _ = _timed_pass(ops, tracer.op)
    tracer.install()
    try:
        traced, raised = _timed_pass(ops, tracer.op)
    finally:
        tracer.uninstall()
    tracer.write(job["spans_path"])
    for layer, row in tracer.summary().items():
        metrics[f"trace.{layer}.self_s"] = row["self_s"]
        metrics[f"trace.{layer}.calls"] = row["calls"]
    metrics["trace.overhead_ratio"] = (traced - untraced) / untraced
    metrics["ops"], metrics["raised"] = len(ops), raised
    return metrics


def main(argv: list[str]) -> int:
    mode, job_path, out_path = argv
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    result = run_expr(job) if mode == "expr" else run_trace(job)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
