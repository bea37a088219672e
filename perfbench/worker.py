"""Child process of run.py: runs one workload on generated inputs.

Usage (run.py starts it; it is not meant to be called by hand):

    python3 perfbench/worker.py --workload NAME --work DIR --seconds S --trace 0|1

It imports prodflow from ``src/`` of the checkout, runs one untimed
warm-up op, then either the timed closed loop (``--trace 0``) or the traced
passes (``--trace 1``), and writes its raw results as JSON to
``DIR/result.json``.  The high-water RSS it reports is its own, so it
covers the workload and nothing of the parent.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Lib  # noqa: E402

# inputs the traced run covers, in whole passes so that per-op counts
# repeat exactly for a seed however many passes fit in the run
TRACE_POOL = {"fit_short": 6, "fit_long": 2, "portfolio_report": 1, "validate_long": 2}
# growing-mode candidates the identifier keeps: rate*span within this
# (the cutoff stated in prodflow.identify)
MAX_GROWTH_EXPONENT = 150.0


def run_op(workload, i: int, op) -> tuple[float, list[str], float | None]:
    """Time one op, then check it; an op or check that raises is a failure."""
    t0 = time.perf_counter()
    try:
        out = op(i)
    except Exception:
        return time.perf_counter() - t0, ["op raised: " + traceback.format_exc(limit=3)], None
    latency = time.perf_counter() - t0
    try:
        errors, gof = workload.check(i, out)
    except Exception:
        errors, gof = ["check raised: " + traceback.format_exc(limit=3)], None
    return latency, errors, gof


def measure(workload, seconds: float) -> dict:
    """Closed loop, one client: ops back to back for at least `seconds` of op time.

    The loop ends only after a whole pass over the input pool, so every
    input is measured equally often however fast the machine runs; a
    faster machine must not shift the median towards the first inputs.
    """
    latencies, gofs, errors, failed = [], {}, [], 0
    busy, i = 0.0, 0
    while busy < seconds or i % workload.pool():
        latency, errs, gof = run_op(workload, i, workload.op)
        latencies.append(latency)
        busy += latency
        if errs:
            failed += 1
            errors += errs
        elif gof is not None:
            gofs[i % workload.pool()] = gof
        i += 1
    return {"latencies": latencies, "gofs": list(gofs.values()), "attempted": i, "failed": failed, "errors": errors}


def candidate_rates(identify, run, cfg) -> int:
    grid = identify.rate_grid(cfg)
    span = float(run.output.t[-1] - run.output.t[0])
    return len(grid) + (int((grid * span <= MAX_GROWTH_EXPONENT).sum()) if cfg.allow_unstable else 0)


def traced(workload, lib: Lib, name: str, seconds: float) -> dict:
    """Whole passes over the first inputs, each op untraced then traced.

    The untraced and the traced op of a pair do the same work, so their
    time ratio is the tracing overhead.  Fit ops are followed, outside
    their timing, by a search-only fit of the same run under tracemalloc.
    """
    tracer = Tracer(lib)
    pool = min(TRACE_POOL[name], workload.pool())
    untraced_s = traced_s = search_s = 0.0
    peak, rates, ops, failed, errors = 0, 0, 0, 0, []
    start = time.perf_counter()
    while ops == 0 or time.perf_counter() - start < seconds:
        for i in range(pool):
            latency, errs, _ = run_op(workload, i, workload.op)
            untraced_s += latency
            tracer.install()
            try:
                latency, errs2, _ = run_op(workload, i, tracer.span("op", workload.op))
            finally:
                tracer.remove()
            traced_s += latency
            ops += 1
            for e in (errs, errs2):
                if e:
                    failed += 1
                    errors += e
            for run, cfg in tracer.fit_calls:
                rates += candidate_rates(lib.identify, run, cfg)
                tracemalloc.start()
                t0 = time.perf_counter()
                lib.identify.fit_productivity(run, dataclasses.replace(cfg, refine_iterations=0))
                search_s += time.perf_counter() - t0
                peak = max(peak, tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
            tracer.fit_calls.clear()
    selfs, counts = tracer.self_times(), tracer.counts
    per_op = {k: v / ops for k, v in selfs.items()}
    fit_s = per_op.get("identify.fit_productivity", 0.0)
    metrics = {
        "identify.fit_productivity_s": fit_s,
        "identify.search_s": search_s / ops,
        "identify.refine_s": fit_s - search_s / ops,
        "identify.convolutions": counts["identify.convolutions"] / ops,
        "identify.tracemalloc_peak_mb": peak / 2**20,
        "identify.fit_fdp_s": per_op.get("identify.fit_fdp", 0.0),
        "identify.candidate_rates": rates / ops,
        "transient.settling_time_s": per_op.get("transient.settling_time", 0.0),
        "transient.step_response_s": per_op.get("transient.step_response", 0.0),
        "transient.simulate_response_s": per_op.get("transient.simulate_response", 0.0),
        "transient.trapezoid_convolve_s": per_op.get("transient.trapezoid_convolve", 0.0),
        "ingest.ingest_run_s": per_op.get("ingest.ingest_run", 0.0),
        "ingest.write_run_csv_s": per_op.get("ingest.write_run_csv", 0.0),
        "ingest.rows_read": counts["ingest.rows_read"] / ops,
        "ingest.ingest_cases_s": per_op.get("ingest.ingest_cases", 0.0),
        "ingest.read_sample_csv_s": per_op.get("ingest.read_sample_csv", 0.0),
        "ingest.read_chain_csv_s": per_op.get("ingest.read_chain_csv", 0.0),
        "svgplot.emit_step_plot_s": per_op.get("svgplot.emit_step_plot", 0.0),
        "svgplot.points": counts["svgplot.points"] / ops,
        "svgplot.bytes": counts["svgplot.bytes"] / ops,
        "report.build_report_s": per_op.get("report.build_report", 0.0),
        "report.write_report_csv_s": per_op.get("report.write_report_csv", 0.0),
        "model.parse_model_s": per_op.get("model.parse_model", 0.0),
        "spc.sample_metrics_s": per_op.get("spc.sample_metrics", 0.0),
        "flowchain.propagate_chain_s": per_op.get("flowchain.propagate_chain", 0.0),
        "cli.self_s": per_op.get("cli.main", 0.0),
        "trace.ops_per_s_untraced": ops / untraced_s,
        "trace.ops_per_s_traced": ops / traced_s,
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
    }
    return {"metrics": metrics, "self_per_op": per_op, "counts_per_op": {k: v / ops for k, v in counts.items()},
            "attempted": 2 * ops, "failed": failed,
            "errors": errors, "spans": tracer.spans}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--work", required=True, type=Path)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    manifest = json.loads((args.work / "manifest.json").read_text(encoding="utf-8"))
    lib = Lib()
    workload = WORKLOADS[args.workload](lib, manifest, args.work)
    _, warm_errors, _ = run_op(workload, 0, workload.op)
    if args.trace:
        result = traced(workload, lib, args.workload, args.seconds)
    else:
        result = measure(workload, args.seconds)
    result["warmup_errors"] = warm_errors
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    (args.work / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
