"""One workload process: set up, warm up, run jobs in a closed loop, report.

Started by ``run.py`` in a fresh interpreter with BLAS threads pinned to 1.
The job list is the workload's fixed prefix: whole blocks of the seeded
stream covering its minimum job count.  Modes:
  setup    set up and warm up only (a set-up time sample)
  run      untraced passes over the job list for --seconds (at least
           MIN_PASSES), with a calibration loop timed just before and just
           after every job
  prefix   one untraced pass, then a matmul peak probe
  traced   one pass with every layer function wrapped in spans

Why the calibration loop: this benchmark runs on shared machines whose
speed swings by tens of percent from one second to the next, and drifts
over minutes, as other tenants load the same cores; even its fastest
speed differs by about 10% from one run to the next.  A fixed loop of
numpy-scalar and small-matrix work timed right next to a job slows down
with it, so a job's time divided by its neighbouring calibration time is a
steady measure of its cost.  A job's latency is the median over passes of
that ratio, in reference milliseconds: wall milliseconds on a machine that
runs the calibration loop in REF_CAL_S.  (On a 2-vCPU shared cloud VM the loop took 0.65 ms at
its fastest and 1.2 to 1.3 ms as a run's median.)  Each job's plain fastest
wall time and the calibration times are reported as well.  Every pass must
reproduce the first pass's outputs byte for byte.

The process prints one line, ``RESULT {json}``, on stdout.  ``ready_at``
(wall clock after warm-up) lets the parent measure set-up time from spawn;
``setup_scale``, REF_CAL_S over the mean of calibration loops run right
after warm-up, turns that wall time into reference seconds like latencies.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time

import numpy as np

import jobs
from holonome import deformation
from tracer import LAYERS, Tracer
from workloads import MIN_JOBS, WARMUP, JobStream


def _blas():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment():
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def matmul_peak_gflops(batch=256, dim=16, reps=20, trials=7):
    """Best rate of a plain batched dim x dim complex matmul (8 dim^3 flops each)."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((batch, dim, dim)) + 1j * rng.standard_normal((batch, dim, dim))
    b = rng.standard_normal((batch, dim, dim)) + 1j * rng.standard_normal((batch, dim, dim))
    c = np.empty_like(a)
    best = float("inf")
    for _ in range(trials):
        t0 = time.perf_counter()
        for _ in range(reps):
            np.matmul(a, b, out=c)
        best = min(best, time.perf_counter() - t0)
    return reps * batch * 8 * dim ** 3 / best / 1e9


MIN_PASSES = 3
# The calibration loop is a miniature of holonome's kind of work, built on
# numpy alone so that no change to holonome can alter it: a Python loop of
# numpy-scalar circular distances (the lattice scans) and a chain of 4 x 4
# complex matrix products (gates and propagators).  REF_CAL_S is its time on
# the reference machine that latencies refer to.
CAL_SCAN_STEPS = 750
CAL_MATMULS = 60
REF_CAL_S = 1e-3
SETUP_CAL_SAMPLES = 10
_CAL_STEP = np.float64(0.7071067811865476)
_CAL_U = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 8)).view(complex))[0]
COUNTERS = ("lattice_points", "searches", "exhausted", "suboptimal",
            "report_bytes", "rk4_steps", "rk4_flops")


def _circular(delta):
    r = abs(delta) % (2.0 * np.pi)
    return float(min(r, 2.0 * np.pi - r))


def calibrate():
    """Wall time of the fixed calibration loop: the machine's current speed."""
    t0 = time.perf_counter()
    best = np.inf
    for k in range(CAL_SCAN_STEPS):
        best = min(best, _circular(1.0 - k * _CAL_STEP))
    m = _CAL_U
    for _ in range(CAL_MATMULS):
        m = _CAL_U @ m
    return time.perf_counter() - t0


def summarize(latencies, outcomes, passes=1, mismatches=0):
    """Per-job latencies and first-pass outcomes as the result the parent reads.

    ``attempted`` and ``failed`` count each job of the list once, from its
    first pass, so they depend on the seed alone and not on how many passes
    fit in the run.  ``mismatches`` are later-pass outputs that differ from
    the first pass, and count as wrong outputs.
    """
    failures = {}
    for o in outcomes:
        if o.failure is not None:
            failures[o.failure] = failures.get(o.failure, 0) + 1
    digest = hashlib.sha256()
    for index, o in enumerate(outcomes):
        digest.update(f"{index}:".encode() + o.digest)
    return {
        "latencies": latencies,
        "scan_latency_s": sum(t for t, o in zip(latencies, outcomes) if o.lattice_points),
        "jobs": len(outcomes),
        "passes": passes,
        "attempted": len(outcomes),
        "failed": sum(failures.values()),
        "wrong": sum(o.wrong for o in outcomes) + mismatches,
        "failures": failures,
        "counts": {key: sum(getattr(o, key) for o in outcomes) for key in COUNTERS},
        "output_digest": digest.hexdigest(),
    }


def time_job(spec, tracer=None):
    """Run one job; the only timed region.  Exceptions are results, not crashes."""
    t0 = time.perf_counter()
    try:
        raw = jobs.execute(spec) if tracer is None else tracer.span("job", jobs.execute, spec)
        error = None
    except Exception as exc:  # a failing job is counted, and the run goes on
        raw, error = None, exc
    return time.perf_counter() - t0, raw, error


def run_job(spec, tracer=None):
    """Time one job, then check it outside the timed region with tracing paused."""
    latency, raw, error = time_job(spec, tracer)
    if tracer is not None:
        tracer.enabled = False
    try:
        return latency, jobs.check(spec, raw, error)
    finally:
        if tracer is not None:
            tracer.enabled = True


def run_passes(job_list, seconds):
    """Calibrated passes over the job list for ``seconds``, at least MIN_PASSES.

    Only the first pass checks outputs; later passes must reproduce its
    output digests.  Returns ``summarize`` of the calibrated latencies, plus
    each job's fastest plain wall time and the calibration times.
    """
    ratios = [[] for _ in job_list]
    fastest = [float("inf")] * len(job_list)
    outcomes = [None] * len(job_list)
    cal_s = []
    passes, mismatches = 0, 0
    start, pass_s = time.perf_counter(), 0.0
    while passes < MIN_PASSES or time.perf_counter() - start + pass_s <= seconds:
        pass_start = time.perf_counter()
        for i, spec in enumerate(job_list):
            before = calibrate()
            latency, raw, error = time_job(spec)
            after = calibrate()
            cal_s += (before, after)
            ratios[i].append(2.0 * latency / (before + after))
            fastest[i] = min(fastest[i], latency)
            if passes == 0:
                outcomes[i] = jobs.check(spec, raw, error)
            elif jobs.output_digest(spec, raw, error) != outcomes[i].digest:
                mismatches += 1
        passes += 1
        pass_s = time.perf_counter() - pass_start
    result = summarize([statistics.median(r) * REF_CAL_S for r in ratios],
                       outcomes, passes, mismatches)
    result.update({"fastest_latencies": fastest, "cal_min_s": min(cal_s),
                   "cal_median_s": statistics.median(cal_s)})
    return result


def trace_summary(tracer):
    layers = tracer.layer_totals()
    layer_edges = {}
    for (parent, child), calls in tracer.edges.items():
        caller, callee = (parent or "-").split(".", 1)[0], child.split(".", 1)[0]
        if caller != callee:
            key = f"{caller}->{callee}"
            layer_edges[key] = layer_edges.get(key, 0) + calls
    return {
        "job_s": tracer.function("job").total_s,
        "layers": {name: {"calls": layers[name].calls, "self_s": layers[name].self_s,
                          "failed": layers[name].failed} for name in LAYERS},
        "functions": {name: {"calls": st.calls, "total_s": st.total_s, "self_s": st.self_s}
                      for name, st in tracer.stats.items()},
        "layer_edges": layer_edges,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=["setup", "run", "prefix", "traced"], required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)

    tracer = None
    if args.mode == "traced":
        tracer = Tracer()
        tracer.install()

    # Input generation: whole blocks of the seeded stream covering MIN_JOBS.
    stream = JobStream(args.workload, args.seed, deformation.MAX_WINDING)
    job_list = []
    while len(job_list) < MIN_JOBS[args.workload]:
        job_list.extend(stream.next_block())

    run_job(WARMUP[args.workload], tracer)
    if tracer is not None:
        tracer.reset()
    ready_at = time.time()
    setup_cal_s = statistics.fmean(calibrate() for _ in range(SETUP_CAL_SAMPLES))
    result = {"ready_at": ready_at, "setup_scale": REF_CAL_S / setup_cal_s}

    if args.mode != "setup":
        start = time.perf_counter()
        if args.mode == "run":
            result.update(run_passes(job_list, args.seconds))
        else:
            first = [run_job(spec, tracer) for spec in job_list]
            result.update(summarize([lat for lat, _ in first], [out for _, out in first]))
        result["loop_wall_s"] = time.perf_counter() - start
        if tracer is not None:
            result["trace"] = trace_summary(tracer)
        if args.mode == "prefix":
            result["matmul_peak_gflops"] = matmul_peak_gflops()
        result["env"] = environment()
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write("RESULT " + json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
