#!/usr/bin/env python3
"""quasiphase benchmark: seeded workloads, checked outputs, named metrics.

Run from the repository root:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each run is a fresh interpreter, so the library's lru_cache'd superoperator
and Cholesky factors start cold, as they do for a user process.  The program
is imported from this checkout's src/; without it the run exits non-zero
before printing a result.

--trace 0 measures the end-to-end metrics with tracing off.  --trace 1 runs
the workload with spans around every traced public function (tracing.py),
then replays the same ops untraced in a child interpreter to price the
tracing, and prints the per-layer metrics listed in layers.py.  The last
line of standard output is one JSON object: correct, attempted, failed and
metrics.  The run exits 1 when any op failed its output check.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("verify", "certify", "cli_files")
SETUP_PROBES = 8  # child set-ups per run, next to the run's own
CHILD_TIMEOUT_S = 170
# Deviations are floored here so an exact 0 keeps a finite margin.
DEVIATION_FLOOR = 1e-16
TAIL_BEYOND = 10
TAIL_MIN_SAMPLES = 4 * TAIL_BEYOND

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
    ("accuracy_margin_decades", "decades"),
)


def load_program() -> SimpleNamespace:
    """Import quasiphase from ROOT/src, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "quasiphase" / "__init__.py").is_file():
        sys.exit(f"perfbench: no quasiphase sources under {src}")
    sys.path.insert(0, str(src))
    import quasiphase
    from quasiphase import analysis, channels, cli, fock, phasespace

    if Path(quasiphase.__file__).resolve().parent != src / "quasiphase":
        sys.exit(f"perfbench: imported quasiphase from {quasiphase.__file__}")
    return SimpleNamespace(fock=fock, channels=channels, phasespace=phasespace,
                           analysis=analysis, cli=cli)


def build_workload(qp, name: str, seed: int, tracer):
    """Generate the workload's inputs in a scratch directory of its own."""
    import workloads

    workdir = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    return workloads.WORKLOADS[name](qp, seed, str(workdir), tracer), workdir


def set_up(name: str, seed: int, tracer):
    """Import the program and generate the workload inputs; time both."""
    start = time.perf_counter()
    qp = load_program()
    workload, workdir = build_workload(qp, name, seed, tracer)
    return qp, workload, workdir, time.perf_counter() - start


def run_loop(workload, tracer, seconds: float, min_ops: int = 1,
             max_ops: int | None = None) -> list:
    """Closed loop: one op at a time until the time (or op count) is spent."""
    from workloads import Outcome

    results = []
    ops = workload.ops()
    start = time.perf_counter()
    while True:
        if max_ops is not None:
            if len(results) >= max_ops:
                break
        elif len(results) >= min_ops and time.perf_counter() - start >= seconds:
            break
        op = next(ops)
        tracer.op = len(results)
        t0 = time.perf_counter()
        try:
            value, error = op.run(), None
        except Exception as exc:  # noqa: BLE001 - a failed op, reported below
            value, error = None, f"{op.key}: {type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        if error is None:
            with tracer.paused():
                try:
                    outcome = op.check(value)
                except Exception as exc:  # noqa: BLE001 - output not as expected
                    error = f"{op.key}: check raised {type(exc).__name__}: {exc}"
        if error is not None:
            outcome = Outcome(problems=[error])
        results.append((op.key, latency, outcome))
    return results


def child(args: list) -> dict:
    """Run this script in a fresh interpreter and return its last JSON line."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), *args],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit(f"perfbench: child {args} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def margin(outcome) -> float | None:
    """Decades between each checked deviation and its tolerance, worst one."""
    values = [math.log10(tol / max(dev, DEVIATION_FLOOR))
              for _, dev, tol in outcome.checks if math.isfinite(dev)]
    return min(values) if values else None


def tail(samples: list) -> tuple:
    """Highest order statistic with TAIL_BEYOND samples above it.

    Below TAIL_MIN_SAMPLES that statistic would sit near the median, so the
    maximum stands in and the metric is still reported; the percentile and
    the count beyond it say which one it is.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < TAIL_MIN_SAMPLES:
        return ordered[-1], 100.0, 0
    index = n - TAIL_BEYOND - 1
    return ordered[index], 100.0 * (index + 1) / n, TAIL_BEYOND


def end_to_end(results: list, setups: list) -> tuple:
    latencies = [lat for _, lat, out in results if not out.failed]
    failed = sum(out.failed for _, _, out in results)
    # Each distinct input counts once, at its worst, so the figure does not
    # depend on how many passes fit into the run.
    worst = {}
    for key, _, out in results:
        if (m := margin(out)) is not None:
            worst[key] = min(m, worst.get(key, m))
    ms = [1e3 * lat for lat in latencies] or [math.nan]
    tail_ms, tail_pct, beyond = tail(ms)
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(results) / sum(lat for _, lat, _ in results),
        "op_p50_ms": statistics.median(ms),
        "op_tail_ms": tail_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": (len(results) - failed) / len(results),
        "accuracy_margin_decades":
            statistics.median(worst.values()) if worst else math.nan,
    }
    notes = {
        "setup_s": "median of " + ", ".join(f"{s:.3f}" for s in setups),
        "ops_per_s": f"{len(results)} ops",
        "op_p50_ms": f"n={len(latencies)} ok ops",
        "op_tail_ms": f"p{tail_pct:.1f}, {beyond} samples beyond, n={len(latencies)}",
        "peak_rss_mb": "ru_maxrss of this process",
        "ok_ratio": f"{failed} failed of {len(results)}",
        "accuracy_margin_decades": f"median over {len(worst)} distinct checked ops",
    }
    return values, notes


def per_layer(tracer, results: list, extras: dict, overhead: float) -> dict:
    from layers import LAYER_METRICS

    gauges, counts = {}, dict(tracer.counters)
    for _, _, out in results:
        gauges.update(out.gauges)
        for key, value in out.counts.items():
            counts[key] = counts.get(key, 0.0) + value
    busy, calls = tracer.busy, tracer.calls
    dim_in = counts.get("channels.apply.dim_in", 0.0)

    def p50_ms(name):
        spans = tracer.durations(name)
        return 1e3 * statistics.median(spans) if spans else 0.0

    values = {
        "channels.apply.calls": calls("channels.apply"),
        "channels.apply.dim_out_over_in":
            counts.get("channels.apply.dim_out", 0.0) / dim_in if dim_in else 0.0,
        "channels.inverse.cold.calls": calls("channels.inverse.cold"),
        "phasespace.sample_W.calls": calls("phasespace.sample_W"),
        "analysis.classicality.certified": sum(
            v for k, v in gauges.items()
            if k.startswith("analysis.classicality.certified.")),
        "cli.state.p50_ms": p50_ms("cli.state"),
        "cli.channel.p50_ms": p50_ms("cli.channel"),
        "cli.dist.p50_ms": p50_ms("cli.dist"),
        "trace.overhead_ratio": overhead,
        **extras,
    }
    metrics = {}
    for name, unit, _, _ in LAYER_METRICS:
        if name in values:
            value = values[name]
        elif name.endswith(".busy_s"):
            value = busy(name[:-len(".busy_s")])
        else:
            value = gauges.get(name, counts.get(name, 0.0))
        metrics[name] = {"value": float(value), "unit": unit}
    return metrics


def blas_threads():
    """Thread count of the OpenBLAS numpy loaded, or None if not found."""
    import ctypes
    import glob

    import numpy

    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def environment(qp, args) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = None
    # verify_suite's own rule for its default pool size; None once it is gone.
    thread_count = getattr(qp.analysis, "_thread_count", None)
    workers = (thread_count(qp.analysis.VerifyConfig(), len(qp.analysis.CHECK_NAMES))
               if thread_count else None)
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "verify_suite_default_workers": workers,
        "thread_env": {k: v for k, v in os.environ.items()
                       if k.endswith("_NUM_THREADS") or k == "QUASIPHASE_THREADS"},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def report(results: list, metrics: dict, notes: dict, env: dict) -> int:
    print("environment " + json.dumps(env, sort_keys=True))
    for name, metric in metrics.items():
        note = notes.get(name, "")
        print(f"{name:<62} {metric['value']:>16.6g} {metric['unit']:<8} {note}")
    failed = [out for _, _, out in results if out.failed]
    for out in failed[:5]:
        bad = [f"{label} {dev:.3e} > {tol:.0e}" for label, dev, tol in out.checks
               if not dev <= tol]
        print("failed op: " + "; ".join(out.problems + bad))
    print(json.dumps({"correct": not failed, "attempted": len(results),
                      "failed": len(failed), "metrics": metrics}))
    return 1 if failed else 0


def run_measured(args) -> int:
    from tracing import Tracer

    tracer = Tracer(enabled=False)
    qp, workload, workdir, setup_s = set_up(args.workload, args.seed, tracer)
    try:
        probe = ["--workload", args.workload, "--seed", str(args.seed),
                 "--probe", "setup"]
        # Half the probes before the timed loop and half after, so a slow
        # spell on the host does not catch every set-up of the run.
        setups = [setup_s] + [child(probe)["setup_s"]
                              for _ in range(SETUP_PROBES // 2)]
        results = run_loop(workload, tracer, args.seconds)
        setups += [child(probe)["setup_s"] for _ in range(SETUP_PROBES // 2)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    values, notes = end_to_end(results, setups)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END}
    return report(results, metrics, notes, environment(qp, args))


def run_traced(args) -> int:
    import tracing

    tracer = tracing.Tracer()
    qp = load_program()
    # Traced from input generation on, so set-up work shows per layer too.
    with tracing.installed(tracer, qp):
        workload, workdir = build_workload(qp, args.workload, args.seed, tracer)
        try:
            results = run_loop(workload, tracer, args.seconds / 2,
                               min_ops=workload.pass_len)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    traced_s = sum(lat for _, lat, _ in results)
    replay = child(["--workload", args.workload, "--seed", str(args.seed),
                    "--probe", "replay", "--ops", str(len(results))])
    extras = workload.per_check() if hasattr(workload, "per_check") else {}
    metrics = per_layer(tracer, results, extras, traced_s / replay["wall_s"])
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"spans-{args.workload}-{args.seed}.json", "w",
              encoding="utf-8") as handle:
        json.dump({"columns": ["id", "name", "start", "end", "parent", "op", "thread"],
                   "spans": tracer.dump()}, handle)
    return report(results, metrics, {}, environment(qp, args))


def run_probe(args) -> int:
    """Child modes: time one set-up, or replay N ops untraced."""
    from tracing import Tracer

    tracer = Tracer(enabled=False)
    _, workload, workdir, setup_s = set_up(args.workload, args.seed, tracer)
    try:
        if args.probe == "setup":
            print(json.dumps({"setup_s": setup_s}))
            return 0
        results = run_loop(workload, tracer, 0.0, max_ops=args.ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"wall_s": sum(lat for _, lat, _ in results)}))
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh interpreter, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", choices=("setup", "replay"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--ops", type=int, default=1, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.workload == "all":
        return run_all(args)
    if args.probe:
        return run_probe(args)
    return run_traced(args) if args.trace else run_measured(args)


if __name__ == "__main__":
    sys.exit(main())
