"""Closed-loop benchmark of cutmetrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from
``src/``.  One process runs one workload.  After set-up, a single client
thread runs whole rounds of the workload's fixed operation list, each
operation starting when the previous one ends, until ``S`` seconds have
been spent inside operations.  Every output is checked against an
independent reference outside the timed region.  The last line of
standard output is the JSON result; ``--trace 1`` reports per-layer
metrics instead of the end-to-end ones.
"""

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
PACKAGE = "cutmetrics"

SETUP_REPEATS = 5
# Timings are scaled by CALIBRATION_REF_S over the nearby time of
# calibration_s(), which takes out the host's drifting speed: they read as
# seconds on a host where the kernel takes 2.5 ms (see README.md).
CALIBRATION_REF_S = 2.5e-3
# The highest percentile with at least ten samples beyond it at the
# smallest sample count a run of the workload makes (see README.md).
TAIL_PERCENTILE = {
    "compute_biconnected": 90,
    "compute_cut_rich": 90,
    "validate_cli": 75,
    "small_exact": 97,
}
WORKLOADS = {
    "compute_biconnected": lambda seed, workdir: workloads.compute(seed, cut_rich=False),
    "compute_cut_rich": lambda seed, workdir: workloads.compute(seed, cut_rich=True),
    "validate_cli": workloads.validate_cli,
    "small_exact": lambda seed, workdir: workloads.small_exact(seed),
}


_CALIBRATION_MATRIX = np.linspace(0.0, 1.0, 120 * 120).reshape(120, 120)


def calibration_s():
    """Seconds taken by a fixed piece of work, an interpreter loop and small
    numpy array updates, which slows with the host as the program does."""
    start = time.perf_counter()
    total = 0
    for i in range(20000):
        total += i * i % 7
    x = _CALIBRATION_MATRIX
    for _ in range(20):
        x = np.outer(x[0], x[1]) * 1e-3 + _CALIBRATION_MATRIX
    return time.perf_counter() - start


def import_fresh(tracer):
    """Import the package from ``src/`` anew, as a new process would."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    package = importlib.import_module(PACKAGE)
    if Path(package.__file__).resolve().parent != (SRC / PACKAGE).resolve():
        raise SystemExit(f"bench: imported {package.__file__}, not the checkout's src/{PACKAGE}")
    modules = SimpleNamespace(**{m: importlib.import_module(f"{PACKAGE}.{m}") for m in tracing.TRACED})
    if tracer is not None:
        tracer.install(PACKAGE)
    return modules


def attempt(run, check):
    """Run one operation; returns its latency and the verdict on its output."""
    start = time.perf_counter()
    try:
        out = run()
    except Exception:  # a raising operation fails; the run goes on
        elapsed = time.perf_counter() - start
        print(f"bench: operation raised\n{traceback.format_exc()}", file=sys.stderr)
        return elapsed, workloads.WRONG
    elapsed = time.perf_counter() - start
    try:
        return elapsed, check(out)
    except Exception:  # output the check cannot read is wrong output
        print(f"bench: unreadable output\n{traceback.format_exc()}", file=sys.stderr)
        return elapsed, workloads.WRONG


def set_up(workload, tracer):
    """Import, parse every input and run one untimed first operation,
    ``SETUP_REPEATS`` times.  Returns the last modules and round, the time
    of each set-up and the calibration times around them."""
    times, kernel = [], [calibration_s()]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        cm = import_fresh(tracer)
        ops = workload.make_round(cm, workload.parse_inputs(cm))
        try:
            ops[0][0]()
        except Exception:  # counted as failed when measure() runs it
            pass
        times.append(time.perf_counter() - start)
        kernel.append(calibration_s())
    return cm, ops, times, kernel


def measure(ops, seconds, tracer):
    """Whole rounds of ``ops`` until ``seconds`` have been spent inside them.

    Returns the latencies, the calibration times before each operation and
    after the last, and the failures.
    """
    latencies, kernel, failures = [], [calibration_s()], []
    while sum(latencies) < seconds:
        for index, (run, check) in enumerate(ops):
            if tracer is not None:
                tracer.op = len(latencies)
            elapsed, verdict = attempt(run, check)
            kernel.append(calibration_s())
            latencies.append(elapsed)
            if verdict != workloads.OK:
                failures.append((index, verdict))
    return latencies, kernel, failures


def scaled(times, kernel):
    """Each time, scaled by ``CALIBRATION_REF_S`` over the median of the
    three nearest calibration times: before the previous timing, and just
    before and just after this one (``kernel[i]`` precedes ``times[i]``)."""
    return [t * CALIBRATION_REF_S / statistics.median(kernel[max(i - 1, 0) : i + 2]) for i, t in enumerate(times)]


def timing_metrics(latencies, setup_s, tail):
    lat_ms = np.array(latencies) * 1000.0
    return {
        "ops_per_s": {"value": len(latencies) / float(np.sum(latencies)), "unit": "1/s"},
        "latency_p50_ms": {"value": float(np.percentile(lat_ms, 50)), "unit": "ms"},
        "latency_tail_ms": {"value": float(np.percentile(lat_ms, tail)), "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }


def layer_metrics(tracer, cm, ops_done):
    metrics = {}
    for name in tracing.TRACED_NAMES:
        calls = tracer.calls.get(("run", name), 0)
        self_s = tracer.self_s.get(("run", name), 0.0)
        metrics[f"{name}.calls"] = {"value": calls / ops_done, "unit": "calls/op"}
        metrics[f"{name}.self_ms"] = {"value": 1000.0 * self_s / ops_done, "unit": "ms/op"}
    invert_s = tracer.self_s.get(("run", "linalg.invert"), 0.0)
    gflops = tracer.invert_flops / invert_s / 1e9 if invert_s > 0 else 0.0
    metrics["linalg.invert.gflop_per_s"] = {"value": gflops, "unit": "GFLOP/s"}
    cache = getattr(cm.measures, "_path_length_weights", None)
    info = cache.cache_info() if cache is not None else None
    lookups = info.hits + info.misses if info is not None else 0
    metrics["measures.path_weights.cache_hit_ratio"] = {
        "value": info.hits / lookups if lookups else 0.0,
        "unit": "ratio",
    }
    parse_s = tracer.self_s.get(("setup", "graph.parse_graph"), 0.0)
    metrics["graph.parse_graph.setup_ms"] = {"value": 1000.0 * parse_s / SETUP_REPEATS, "unit": "ms"}
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"bench: no {PACKAGE} source under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workdir = OUT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        tracer = tracing.Tracer() if args.trace else None
        cm, ops, setup_times, setup_kernel = set_up(workload, tracer)
        cache = getattr(cm.measures, "_path_length_weights", None)
        if cache is not None:
            cache.cache_clear()  # every round then sees the same cache state
        latencies, kernel, failures = measure(ops, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(latencies)
    correct = all(verdict == workloads.KNOWN_FAULT for _, verdict in failures)
    tail = TAIL_PERCENTILE[args.workload]
    scaled_latencies = scaled(latencies, kernel)
    if args.trace:
        metrics = layer_metrics(tracer, cm, attempted)
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
    else:
        setup_s = statistics.median(scaled(setup_times, setup_kernel))
        metrics = {
            **timing_metrics(scaled_latencies, setup_s, tail),
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "ops_per_round": len(ops),
        "graphs_per_round": workload.graphs_per_round,
        "rounds": attempted // len(ops),
        "samples": attempted,
        "tail_percentile": tail,
        "unscaled": {
            name: m["value"] for name, m in timing_metrics(latencies, statistics.median(setup_times), tail).items()
        },
        "scale": sum(scaled_latencies) / sum(latencies),
        "calibration_ms": 1000.0 * statistics.median(kernel),
        "blas_threads": BLAS_THREADS,
        "failed_ops": sorted({index for index, _ in failures}),
    }
    print(json.dumps(info), file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
