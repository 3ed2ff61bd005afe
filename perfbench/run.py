"""Benchmark of gssd on three fixed workloads, measured from outside the package.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload swd-proj --seed 1 --seconds 30 --trace 0

``--trace 0`` times the workload's job untraced and prints the end-to-end
metrics; ``--trace 1`` alternates untraced and traced runs of the job at
``workers=1`` and prints the per-layer metrics.  Either way the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  gssd is imported from ``src/`` of the checkout;
without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import numpy
import scipy

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = 5


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("swd-proj", "sweep-mmd", "exact-routes"))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        ap.error("--seed must be an unsigned 64-bit integer")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def import_seconds() -> float:
    """Time to import gssd in a fresh interpreter, as a user's process pays it."""
    code = "import time; t = time.perf_counter(); import gssd; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def openblas_function(name: str):
    """A function of the OpenBLAS bundled with numpy, such as get_num_threads, or None."""
    for lib in glob.glob(os.path.join(os.path.dirname(numpy.__file__), "..", "numpy.libs", "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in (f"scipy_openblas_{name}64_", f"openblas_{name}64_", f"openblas_{name}"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                return fn
    return None


def pin_blas_threads() -> str:
    """Run BLAS on one thread and return the thread count it reports.

    The job runs with at most 2 worker threads on 2 cores; BLAS threads on top
    of them would oversubscribe the cores and add noise to every timing.
    """
    set_threads, get_threads = openblas_function("set_num_threads"), openblas_function("get_num_threads")
    if set_threads is None or get_threads is None:
        return "unknown"
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    set_threads(1)
    return str(get_threads())


def git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
    except OSError:
        return "unavailable (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        with open(os.path.join(git, ref), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args, blas_threads: str) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "blas_thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
        "git_commit": git_commit(),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seed_source": "--seed argument",
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Ops:
    """Counts operations attempted and failed; a failure is printed as it happens."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, label: str, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED {label}: {detail}", file=sys.stderr)


def measure(variants, seconds: float, ops: Ops) -> tuple[dict, dict]:
    """Run rounds of every variant until the next round would pass ``seconds``.

    A variant is (label, key, run).  Each round runs each variant once, in
    alternating order, so drift in the machine's speed falls on neighbours
    alike.  At least one round runs.  Every result must be bit-identical to
    the first one of its key (the package's determinism contract across
    worker counts and tracing).  Returns the seconds of each run per label
    and the first result per key.
    """
    samples = {label: [] for label, _, _ in variants}
    first = {}  # key -> (fingerprint, result)
    start = time.perf_counter()
    rounds = 0
    while True:
        order = variants if rounds % 2 == 0 else variants[::-1]
        broken = False
        for label, key, run in order:
            t0 = time.perf_counter()
            try:
                fp, result = run()
            except Exception:
                samples[label].append(time.perf_counter() - t0)
                ops.record(False, f"job {label}", traceback.format_exc())
                broken = True
                continue
            samples[label].append(time.perf_counter() - t0)
            first.setdefault(key, (fp, result))
            ops.record(fp == first[key][0], f"job {label} round {rounds}", "result differs from the first run")
        rounds += 1
        elapsed = time.perf_counter() - start
        if broken or elapsed * (rounds + 1) / rounds > seconds:
            return samples, {key: result for key, (_, result) in first.items()}


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(samples: dict, parts, setup: list, peak_rss_mb: float) -> dict:
    # wall_s sums the median time of each part of the job.  Each part runs
    # with w1 and w2 back to back, so the ratio within a round cancels the
    # machine's drift in speed from round to round.
    w1 = [samples[f"{part}/w1"] for part in parts]
    w2 = [samples[f"{part}/w2"] for part in parts]
    ratios = [sum(a) / sum(b) for a, b in zip(zip(*w1), zip(*w2))]
    return {
        "wall_s": metric(sum(statistics.median(times) for times in w1), "s"),
        "speedup_w2": metric(statistics.median(ratios), "ratio"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "setup_s": metric(statistics.median(setup), "s"),
    }


# per-layer metric -> (source, key, unit); sources: "count", "total" seconds, "self" seconds
LAYER_METRICS = {
    "rng.streams": ("count", "rng.stream_calls", "count"),
    "rng.stream_s": ("total", "rng.stream", "s"),
    "rng.normal_words": ("count", "rng.normals_words", "count"),
    "rng.normals_s": ("total", "rng.normals", "s"),
    "slicing.directions": ("count", "slicing.direction_calls", "count"),
    "slicing.direction_s": ("self", "slicing.direction", "s"),
    "slicing.project_calls": ("count", "slicing.project_calls", "count"),
    "slicing.project_s": ("total", "slicing.project", "s"),
    "slicing.project_bytes": ("count", "slicing.project_bytes", "bytes"),
    "slicing.smooth_s": ("self", "slicing.smooth", "s"),
    "divergences.wasserstein_calls": ("count", "divergences.wasserstein_calls", "count"),
    "divergences.wasserstein_s": ("total", "divergences.wasserstein", "s"),
    "divergences.mmd_calls": ("count", "divergences.mmd_calls", "count"),
    "divergences.mmd_s": ("total", "divergences.mmd", "s"),
    "divergences.mmd_kernel_evals": ("count", "divergences.mmd_kernel_evals", "count"),
    "divergences.bandwidth_s": ("total", "divergences.bandwidth", "s"),
    "divergences.sinkhorn_calls": ("count", "divergences.sinkhorn_calls", "count"),
    "divergences.sinkhorn_s": ("total", "divergences.sinkhorn", "s"),
    "divergences.sinkhorn_iterations": ("count", "divergences.sinkhorn_iterations", "count"),
    "divergences.sinkhorn_unconverged": ("count", "divergences.sinkhorn_unconverged", "count"),
    "divergences.sinkhorn_marginal_err_max": ("count", "divergences.sinkhorn_marginal_err_max", "mass"),
    "divergences.sinkhorn_cell_updates": ("count", "divergences.sinkhorn_cell_updates", "count"),
    "divergences.oracle_calls": ("count", "divergences.oracle_calls", "count"),
    "divergences.oracle_s": ("total", "divergences.oracle", "s"),
    "estimator.estimate_calls": ("count", "estimator.estimate_calls", "count"),
    "estimator.sweep_calls": ("count", "estimator.sweep_calls", "count"),
    "estimator.estimate_s": ("total", "estimator.estimate", "s"),
    "experiments.read_csv_s": ("total", "experiments.read_csv", "s"),
    "experiments.read_csv_bytes": ("count", "experiments.read_csv_bytes", "bytes"),
    "experiments.compare_s": ("total", "experiments.compare", "s"),
}
LAYERS = ("rng", "slicing", "divergences", "estimator", "experiments", "bench")


def per_layer(tracer, untraced: list, ops: Ops, unconverged_frac: float) -> tuple[dict, list, int]:
    """Per-layer metrics of the traced op whose wall time is the median one.

    Taking every time from one op keeps the layer self times adding up to that
    op's wall time.  Counts must repeat exactly from op to op.
    """
    walls = {op: tracer.times(op)[0][tracing.ROOT] for op in tracer.ops}
    median_op = sorted(walls, key=walls.get)[(len(walls) - 1) // 2]
    total, own = tracer.times(median_op)
    counts = tracer.counts[median_op]
    for op in tracer.ops:
        ops.record(dict(tracer.counts[op]) == dict(counts), f"trace op {op} counts", "counts differ between runs")
    out = {}
    for name, (source, key, unit) in LAYER_METRICS.items():
        table = counts if source == "count" else total if source == "total" else own
        out[name] = metric(table.get(key, 0.0), unit)
    layer_self = {layer: 0.0 for layer in LAYERS}
    for span, seconds in own.items():
        layer_self[span.split(".")[0]] += seconds
    for layer, seconds in layer_self.items():
        out[f"{layer}.self_s"] = metric(seconds, "s")
    wall = walls[median_op]
    out["trace.wall_s"] = metric(wall, "s")
    out["trace.untraced_wall_s"] = metric(statistics.median(untraced), "s")
    out["trace.overhead_s"] = metric(wall - statistics.median(untraced), "s")
    out["trace.spans"] = metric(tracer.ops[median_op].size, "count")
    out["trace.missing_hooks"] = metric(len(tracer.missing), "count")
    out["unconverged_frac"] = metric(unconverged_frac, "ratio")
    # a metric whose hook is gone reads 0 and is listed as missing
    missing = [name for name, (_, key, _) in LAYER_METRICS.items() if key.startswith(tuple(tracer.missing.values()))]
    return out, missing, median_op


def unconverged_fraction(workload: str, result) -> float:
    """Unconverged Sinkhorn slices over Sinkhorn slices attempted; 0 without Sinkhorn."""
    if workload != "exact-routes":
        return 0.0
    report = result["sinkhorn"]
    return report["unconverged_projections"] / report["num_projections"]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gssd", "__init__.py")):
        print(f"gssd sources not found under {SRC}; run from the root of a gssd checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    os.makedirs(OUT, exist_ok=True)
    import gssd
    import workloads

    if not os.path.abspath(gssd.__file__).startswith(SRC + os.sep):
        print(f"imported gssd from {gssd.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    env = environment(args, pin_blas_threads())
    print("# env " + json.dumps(env, sort_keys=True), flush=True)
    wl = workloads.WORKLOADS[args.workload]
    ops = Ops()

    setup = []
    for _ in range(SETUP_REPEATS):
        t_import = import_seconds()
        t0 = time.perf_counter()
        inputs = wl.make_inputs(args.seed, OUT)
        workloads.warm_up(inputs, wl.kinds)
        setup.append(t_import + time.perf_counter() - t0)

    if args.trace == 0:
        variants = [(f"{name}/w{workers}", name, lambda part=part, workers=workers: part(inputs, workers))
                    for name, part in wl.parts.items() for workers in (1, 2)]
    else:
        tracer = tracing.Tracer()

        def traced():
            try:
                with tracer.installed():
                    return tracer.call(tracing.ROOT, wl.job, inputs, 1)
            finally:
                tracer.end_op()

        variants = [("untraced", "job", lambda: wl.job(inputs, 1)), ("traced", "job", traced)]
    samples, results = measure(variants, args.seconds, ops)
    if args.trace == 0:
        result = results if len(results) == len(wl.parts) else None
    else:
        result = results.get("job")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks = []
    if result is not None:
        try:
            checks = wl.checks(inputs, result)
        except Exception:
            ops.record(False, "checks", traceback.format_exc())
    for label, ok, detail in checks:
        ops.record(ok, label, detail)
        print(f"# check {'ok  ' if ok else 'FAIL'} {label}: {detail}")
    unconverged = unconverged_fraction(args.workload, result) if result is not None else 0.0

    if args.trace == 0:
        metrics = end_to_end(samples, wl.parts, setup, peak_rss_mb)
        missing = []
    else:
        metrics, missing, median_op = per_layer(tracer, samples["untraced"], ops, unconverged)
        tracer.write_csv(os.path.join(OUT, f"spans-{args.workload}.csv"), median_op)
        layer_self = sum(metrics[f"{layer}.self_s"]["value"] for layer in LAYERS)
        print(f"# accounting: layer self times sum to {layer_self:.9f} s of the traced wall "
              f"{metrics['trace.wall_s']['value']:.9f} s")
        if missing:
            print("# missing " + " ".join(missing) + " (hooks gone: " + " ".join(tracer.missing) + ")")
    failed_frac = ops.failed / ops.attempted
    if args.trace == 1:
        metrics["failed_frac"] = metric(failed_frac, "ratio")
    runs = ", ".join(f"{label} x{len(times)}" for label, times in samples.items())
    print(f"# runs: {runs}; setup x{len(setup)}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}{' (missing)' if name in missing else ''}")
    print(f"# {ops.failed} of {ops.attempted} ops failed; unconverged_frac = {unconverged:.6g}")
    with open(os.path.join(OUT, f"result-{args.workload}-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump({"env": env, "samples_s": samples, "setup_s": setup, "metrics": metrics, "missing": missing,
                   "checks": checks, "unconverged_frac": unconverged, "failed_frac": failed_frac}, fh, indent=1)
    print(json.dumps({"correct": ops.failed == 0, "attempted": ops.attempted, "failed": ops.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
