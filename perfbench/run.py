"""circmax benchmark: one closed-loop client over a seeded workload.

    python3 perfbench/run.py --workload extend-scalar --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
./src.  With --trace 0 the run prints the end-to-end metrics named in
BENCHMARK.json; with --trace 1 it serves the same requests once untraced
and once traced and prints the per-layer metrics.  Human-readable lines
come first; the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".perfbench_run")

SETUP_REPEATS = 5
TAIL_PERCENTILES = (50, 90, 99, 99.9, 99.99)
TAIL_MIN_ABOVE = 10

# Seconds one cycle of each workload's requests takes on the reference
# machine (2 cores).  A traced run serves a fixed number of whole cycles,
# derived from --seconds, so its counts repeat exactly for a seed.
NOMINAL_CYCLE_S = {"extend-scalar": 2.2, "extend-multichannel": 2.4,
                   "identify-records": 1.6, "cli-mix": 1.6}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(NOMINAL_CYCLE_S))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="a few small inputs (for the benchmark's own tests)")
    return ap.parse_args(argv)


def blas_threads() -> str:
    """Thread count of the loaded OpenBLAS, read through its C API."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return "unknown"
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def environment() -> str:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')}-{blas.get('version')}"
    except (TypeError, KeyError):
        vendor = "unknown"
    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    return (f"python={platform.python_version()} numpy={np.__version__} blas={vendor} "
            f"blas_threads={blas_threads()} CMX_THREADS={os.environ.get('CMX_THREADS', 'unset')} "
            f"nproc={len(os.sched_getaffinity(0))} loadavg={load}")


def tail(latencies):
    """Highest listed percentile with at least ten samples above it."""
    ordered = sorted(latencies)
    k = len(ordered)
    best = None
    for p in TAIL_PERCENTILES:
        above = int(k * (100 - p) / 100)
        if above >= TAIL_MIN_ABOVE:
            best = (p, ordered[k - above - 1], above)
    if best is None:  # too few samples for any listed percentile: the maximum
        best = (100.0, ordered[-1], 0)
    return best


def import_seconds() -> float:
    """Wall time of a fresh interpreter importing the library."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", f"import sys; sys.path.insert(0, {SRC!r}); "
                    "import circmax"], check=True)
    return time.perf_counter() - t0


def setup_once(inputs, workloads, args, workdir):
    """Import, input generation, request construction and one warm-up request."""
    t0 = time.perf_counter()
    import_seconds()
    generated = inputs.generate(args.workload, args.seed, args.tiny)
    requests = workloads.build_requests(generated.requests, workdir)
    warm = workloads.LoopResult()
    workloads.attempt(requests[0], warm)
    return time.perf_counter() - t0, generated, requests, warm.failed


def end_to_end(loop, setup_s, cycle_size):
    """Throughput and CPU are medians over whole cycles, robust to a stalled second."""
    p, value, above = tail(loop.latencies)
    print(f"# latency_tail_ms is p{p:g} of {loop.attempted} samples ({above} above it); "
          f"{len(loop.cycle_ends)} cycles of {cycle_size} requests")
    return {
        "setup_s": setup_s,
        "requests_per_s": statistics.median(
            c / t for c, t in zip(loop.per_cycle(loop.ok), loop.per_cycle(loop.latencies))),
        "latency_p50_ms": 1e3 * statistics.median(loop.latencies),
        "latency_tail_ms": 1e3 * value,
        "cpu_ms_per_request": 1e3 / cycle_size * statistics.median(loop.per_cycle(loop.cpu)),
        "failed_ratio": loop.failed / loop.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_pass(tracer_mod, workloads, requests, cycles):
    """The same cycles untraced, then traced; per-layer metrics and overhead."""
    plain = workloads.closed_loop(requests, cycles=cycles)
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        traced = workloads.closed_loop(requests, cycles=cycles, on_request=tracer.set_request)
    finally:
        tracer.uninstall()
    expected = {i: requests[i % len(requests)].expected_code
                for i in range(traced.attempted)}
    metrics = tracer_mod.layer_metrics(tracer.spans, expected)
    metrics["trace.overhead_ratio"] = (statistics.median(traced.per_cycle(traced.latencies))
                                       / statistics.median(plain.per_cycle(plain.latencies))
                                       - 1.0)
    return plain, traced, tracer, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "circmax", "__init__.py")):
        print(f"perfbench: no circmax sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)

    sys.path.insert(0, SRC)
    import circmax
    if os.path.dirname(os.path.abspath(circmax.__file__)) != os.path.join(SRC, "circmax"):
        print(f"perfbench: imported circmax from {circmax.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    import inputs
    import tracer as tracer_mod
    import workloads

    print(f"# env {environment()}")
    os.makedirs(RUN_DIR, exist_ok=True)
    workdir = os.path.join(RUN_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        repeats = 1 if args.trace else SETUP_REPEATS
        setups = [setup_once(inputs, workloads, args, workdir) for _ in range(repeats)]
        setup_s = statistics.median(s[0] for s in setups)
        _, generated, requests, _ = setups[-1]
        setup_failed = sum(s[3] for s in setups)
        print(f"# inputs workload={args.workload} seed={args.seed} "
              f"requests_per_cycle={len(requests)} digest={generated.digest}")

        if args.trace:
            cycles = max(1, round(args.seconds / (2 * NOMINAL_CYCLE_S[args.workload])))
            plain, traced, tracer, values = traced_pass(tracer_mod, workloads, requests, cycles)
            tracer.write(os.path.join(RUN_DIR, f"trace-{args.workload}.tsv"))
            print(f"# traced {cycles} cycles of {len(requests)} requests, "
                  f"{len(tracer.spans)} spans")
            attempted = plain.attempted + traced.attempted
            failed = plain.failed + traced.failed
            wanted = bench["per_layer"]
        else:
            loop = workloads.closed_loop(requests, seconds=args.seconds)
            values = end_to_end(loop, setup_s, len(requests))
            attempted, failed = loop.attempted, loop.failed
            wanted = bench["end_to_end"]
            print(f"metric failed_ratio = {values['failed_ratio']:.6g} ratio")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {}
    for entry in wanted:
        value = values[entry["name"]]
        print(f"metric {entry['name']} = {value:.6g} {entry['unit']}")
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    correct = failed == 0 and setup_failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
