"""prodflow benchmark: four closed-loop workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fit_short --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload fit_short --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --workload fit_short --seed 1 --seconds 1 --trace 0 --smoke

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones; BENCHMARK.json at the root names both sets.  ``--smoke`` shrinks
every input so that a run takes seconds (the benchmark's own tests use it).
The environment, the digest of the generated inputs and every metric with
its unit are printed first; the last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_RUNS = 7  # fresh interpreters timed for setup_s, after one untimed
TAIL_BEYOND = 10  # samples a tail percentile must leave beyond it
CHILD_BUDGET_S = 170.0  # the whole run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_CODE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import prodflow.cli\n"
    "prodflow.cli.main(['--version'])\n"
    "print(time.perf_counter() - t0)\n"
)


def environment(nproc: int) -> tuple[dict, dict]:
    """The environment record, and the child environment with BLAS threads capped at nproc."""
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    child_env = dict(os.environ)
    threads = {}
    for var in THREAD_VARS:
        found = os.environ.get(var)
        if found is None:
            continue
        threads[var] = found
        if found.isdigit() and int(found) > nproc:
            child_env[var] = str(nproc)
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = done.stdout.strip() or "unknown"
    record = {"python": platform.python_version(), "numpy": numpy.__version__, "nproc": nproc,
              "cpu": cpu, "blas": blas, "blas_threads": threads or "unset", "commit": commit}
    return record, child_env


def setup_seconds(runs: int) -> float:
    """Median in-process time of `import prodflow.cli` + `main(["--version"])` over fresh interpreters."""
    times = []
    for k in range(runs + 1):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(ROOT / "src")], cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        if k:  # the first one may compile bytecode
            times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile with TAIL_BEYOND samples beyond it.

    With fewer than TAIL_BEYOND + 1 samples no percentile qualifies; the
    lowest sample is taken, and the printed count says so.
    """
    ordered = sorted(latencies)
    idx = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[idx], 100.0 * (idx + 1) / len(ordered), len(ordered) - 1 - idx


def end_to_end(raw: dict, setup_s: float) -> tuple[dict, list[str]]:
    lat = raw["latencies"]
    value, pct, beyond = tail(lat)
    gofs = raw["gofs"]
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": len(lat) / sum(lat),
        "latency_p50_s": statistics.median(lat),
        "latency_tail_s": value,
        "peak_rss_mb": raw["maxrss_kb"] / 1024.0,
        "ok_frac": 1.0 - raw["failed"] / raw["attempted"],
        "gof_mean": statistics.fmean(gofs) if gofs else 0.0,
    }
    notes = [f"latency_tail_s is p{pct:.1f} of {len(lat)} ops, {beyond} beyond it",
             f"failed_frac {raw['failed'] / raw['attempted']!r} ({raw['failed']} of {raw['attempted']})"]
    return metrics, notes


def layer_table(raw: dict) -> list[str]:
    """Self time per layer and span, per op, with its share of the op."""
    per_op = raw["self_per_op"]
    op_total = sum(per_op.values())
    layers: dict[str, float] = {}
    for name, secs in per_op.items():
        layer = name.split(".")[0] if "." in name else "benchmark (op glue)"
        layers[layer] = layers.get(layer, 0.0) + secs
    lines = [f"traced op time {op_total!r} s per op; self time by layer:"]
    for layer, secs in sorted(layers.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {layer:<22} {secs:12.6f} s/op  {100 * secs / op_total:6.2f} %")
    lines.append("self time by span:")
    for name, secs in sorted(per_op.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {name:<34} {secs:12.6f} s/op")
    lines.append("counts per op:")
    for name, count in sorted(raw["counts_per_op"].items()):
        lines.append(f"  {name:<34} {count!r}")
    m = raw["metrics"]
    lines.append(f"tracing overhead: traced {m['trace.ops_per_s_traced']!r} ops/s against untraced "
                 f"{m['trace.ops_per_s_untraced']!r} ops/s ({100 * m['trace.overhead_frac']:+.2f} %)")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, one setup interpreter")
    args = ap.parse_args(argv)

    bench_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "prodflow" / "__init__.py").is_file() or not bench_file.is_file():
        print(f"error: {ROOT} is not a prodflow checkout (needs src/prodflow and BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(bench_file.read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    started = time.perf_counter()
    nproc = len(os.sched_getaffinity(0))
    env, child_env = environment(nproc)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        manifest = workloads.generate(args.workload, args.seed, work, args.smoke)
        input_digest = workloads.digest(work)
        (work / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        setup_s = None if args.trace else setup_seconds(1 if args.smoke else SETUP_RUNS)
        budget = CHILD_BUDGET_S - (time.perf_counter() - started)
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--work", str(work),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
        try:
            done = subprocess.run(cmd, cwd=ROOT, env=child_env, timeout=budget)
        except subprocess.TimeoutExpired:
            print(f"error: workload did not finish within {budget:.0f} s", file=sys.stderr)
            return 1
        if done.returncode != 0:
            print(f"error: workload process exited {done.returncode}", file=sys.stderr)
            return 1
        raw = json.loads((work / "result.json").read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is using it
            pass

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}"
          f"{'  smoke' if args.smoke else ''}")
    for key, value in env.items():
        print(f"env {key}: {value}")
    print(f"inputs sha256: {input_digest}")
    if args.trace:
        metrics, notes = raw["metrics"], layer_table(raw)
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps({"columns": ["name", "start", "end", "parent"], "spans": raw["spans"]}),
                              encoding="utf-8")
        notes.append(f"spans written to {spans_path.relative_to(ROOT)}")
    else:
        metrics, notes = end_to_end(raw, setup_s)
    for line in notes:
        print(line)
    for msg in (raw["warmup_errors"] + raw["errors"])[:10]:
        print(f"FAILED CHECK: {msg}")
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    result = {}
    for m in wanted:
        result[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
        print(f"metric {m['name']}: {metrics[m['name']]!r} {m['unit']}")
    correct = raw["failed"] == 0 and not raw["warmup_errors"]
    print(json.dumps({"correct": correct, "attempted": raw["attempted"], "failed": raw["failed"], "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
