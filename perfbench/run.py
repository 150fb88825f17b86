"""holonome benchmark: closed-loop workloads through the CLI and library API.

Usage, from the repository root (numpy is the only dependency):

    python3 perfbench/run.py --workload search-scan --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

Every workload runs in fresh, single-threaded processes (BLAS threads
pinned to 1), one after another, with holonome imported from ``src/``.
One client sends the next job when the previous one finishes; inputs come
from one generator seeded by ``--seed`` (see ``workloads.py``).

``--trace 0`` measures the end-to-end metrics named in BENCHMARK.json:
set-up time (median of several fresh processes: interpreter, imports,
input generation and one warm-up job; in reference seconds, see below),
throughput, latency percentiles and peak RSS of a closed loop that makes
passes over the seeded job list for ``--seconds`` (at least three).  A calibration loop is timed just before and
after every job, and each job's latency is the median over passes of its
time relative to the neighbouring calibration, given in reference
milliseconds (wall time on a machine that runs the calibration loop in
1 ms).  This keeps the figures steady on a shared machine whose speed
swings with its other tenants (see ``worker.py``); the plain fastest wall
times are printed on the ``detail`` line.

``--trace 1`` runs the workload's fixed job prefix twice in fresh
processes, untraced and then traced, and reports the per-layer metrics:
span counts and self times per layer, counts computed from job bounds and
array sizes, a measured matmul peak, cold-start probes and the tracing
overhead.  Both runs must produce the same output digest.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; lines before it print every metric by name
with its unit, and a ``detail`` line with the environment, the output
digest, the failure breakdown and the sample counts.  ``correct`` is false
when an output disagrees with its independent recomputation; jobs that
raise, exit non-zero or miss a library tolerance count in ``failed``.
``attempted`` and ``failed`` count each job of the seeded list once, so a
seed always gives the same counts.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import stats
from tracer import LAYERS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_SAMPLES = 7
COLD_SAMPLES = 5
# One invocation must end within 180 s; keep a margin for the parent itself.
BUDGET_S = 170.0

# Which end-to-end metric each layer metric should move, on which workload.
PREDICTIONS = (
    ("<layer>.calls, .self_s, .self_share, .failed", "job_p50_ms",
     "every workload: they locate its blocking steps"),
    ("synthesis.lattice_points, .points_per_s, .exhausted_ratio", "jobs_per_s, job_p90_ms",
     "search-scan; unchanged on oracle-verify; gate-build job_p50_ms must not worsen"),
    ("cli.self_s", "jobs_per_s", "search-scan: shifts to synthesis when the Hadamard scan moves"),
    ("adiabatic.rk4_steps, .rk4_steps_per_s, .rk4_flops, .rk4_gflops", "jobs_per_s",
     "oracle-verify (compare with matrix_kernel.matmul_peak_gflops); no change elsewhere"),
    ("spin_model.coding_space.calls, matrix_kernel.expm_skew.calls, .self_s", "job_p50_ms",
     "gate-build and oracle-verify"),
    ("reporting.bytes, reporting.bytes_per_s", "job_p50_ms", "gate-build"),
    ("cli.cold_python_s, .cold_numpy_import_s, .cold_holonome_import_s", "setup_s",
     "every workload"),
)

# What the traced run should show about each workload's purpose.
PURPOSE = {
    "search-scan": ("synthesis + cli hold most of the self time",
                    lambda m: m["synthesis.self_share"] + m["cli.self_share"] > 0.5),
    "oracle-verify": ("adiabatic holds most of the self time",
                      lambda m: m["adiabatic.self_share"] > 0.5),
    "gate-build": ("neither the lattice scans nor RK4 dominate",
                   lambda m: m["synthesis.self_share"] < 0.5 and m["adiabatic.self_share"] < 0.5),
}


class BenchError(RuntimeError):
    pass


def load_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def worker_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    return env


def _remaining(deadline):
    left = deadline - time.monotonic()
    if left <= 1.0:
        raise BenchError("time budget exhausted")
    return left


def spawn(workload, seed, mode, seconds, deadline):
    """Run one worker process to completion; set-up time is spawn to ready.

    ``setup_wall_s`` is that wall time; ``setup_s`` is it in reference
    seconds, scaled by the worker's calibration right after set-up.
    """
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--seconds", repr(float(seconds))]
    started = time.time()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=worker_env(), cwd=ROOT,
                          text=True, timeout=_remaining(deadline), check=False)
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("RESULT ")]
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} {mode} worker exited with code {proc.returncode}")
    result = json.loads(lines[-1][len("RESULT "):])
    result["setup_wall_s"] = result["ready_at"] - started
    result["setup_s"] = result["setup_wall_s"] * result["setup_scale"]
    return result


def cold_start(deadline):
    """Medians of interpreter start, numpy import and holonome import times."""
    probe = ("import time; t0 = time.perf_counter(); import numpy; "
             "t1 = time.perf_counter(); import holonome.cli; "
             "print(t1 - t0, time.perf_counter() - t1)")
    python_s, numpy_s, holonome_s = [], [], []
    for _ in range(COLD_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=worker_env(), cwd=ROOT,
                       timeout=_remaining(deadline), check=True)
        python_s.append(time.perf_counter() - t0)
        out = subprocess.run([sys.executable, "-c", probe], env=worker_env(), cwd=ROOT,
                             stdout=subprocess.PIPE, text=True,
                             timeout=_remaining(deadline), check=True).stdout.split()
        numpy_s.append(float(out[0]))
        holonome_s.append(float(out[1]))
    return {"cli.cold_python_s": statistics.median(python_s),
            "cli.cold_numpy_import_s": statistics.median(numpy_s),
            "cli.cold_holonome_import_s": statistics.median(holonome_s)}


def _ratio(num, den):
    return num / den if den else 0.0


def measure_untraced(workload, seed, seconds, deadline):
    spawned = [spawn(workload, seed, "setup", seconds, deadline)
               for _ in range(SETUP_SAMPLES - 1)]
    main = spawn(workload, seed, "run", seconds, deadline)
    spawned.append(main)
    setups = [r["setup_s"] for r in spawned]
    lat = main["latencies"]
    metrics = {
        "setup_s": statistics.median(setups),
        "jobs_per_s": len(lat) / sum(lat),
        "job_p50_ms": stats.percentile(lat, 50) * 1e3,
        "job_p90_ms": stats.percentile(lat, 90) * 1e3,
        "peak_rss_mb": main["rss_kb"] / 1024.0,
    }
    detail = _common_detail(main)
    fastest = main["fastest_latencies"]
    detail.update({
        "setup_samples_s": setups,
        "setup_wall_median_s": statistics.median(r["setup_wall_s"] for r in spawned),
        "timed_s": sum(lat),
        "loop_wall_s": main["loop_wall_s"],
        "calibration_min_ms": main["cal_min_s"] * 1e3,
        "calibration_median_ms": main["cal_median_s"] * 1e3,
        "uncalibrated_fastest": {
            "jobs_per_s": len(fastest) / sum(fastest),
            "job_p50_ms": stats.percentile(fastest, 50) * 1e3,
            "job_p90_ms": stats.percentile(fastest, 90) * 1e3,
        },
    })
    if stats.reportable(99, len(lat)):
        detail["job_p99_ms"] = stats.percentile(lat, 99) * 1e3
    return main["wrong"] == 0, main["attempted"], main["failed"], metrics, detail


def measure_traced(workload, seed, seconds, deadline):
    cold = cold_start(deadline)
    plain = spawn(workload, seed, "prefix", seconds, deadline)
    traced = spawn(workload, seed, "traced", seconds, deadline)
    tr = traced["trace"]
    job_s = tr["job_s"]
    metrics = {}
    for layer in LAYERS:
        v = tr["layers"][layer]
        metrics[f"{layer}.calls"] = v["calls"]
        metrics[f"{layer}.self_s"] = v["self_s"]
        metrics[f"{layer}.self_share"] = _ratio(v["self_s"], job_s)
        metrics[f"{layer}.failed"] = v["failed"]
    counts = plain["counts"]
    fn = tr["functions"]

    def fn_stat(name, key):
        return fn.get(name, {}).get(key, 0)

    ode_s = fn_stat("adiabatic.ode_propagator", "total_s")
    metrics.update({
        # Counts are computed from job bounds and array sizes, not measured.
        "synthesis.lattice_points": counts["lattice_points"],
        "synthesis.points_per_s": _ratio(counts["lattice_points"], plain["scan_latency_s"]),
        "synthesis.exhausted_ratio": _ratio(counts["exhausted"], counts["searches"]),
        "synthesis.gate_distance_suboptimal": counts["suboptimal"],
        "adiabatic.rk4_steps": counts["rk4_steps"],
        "adiabatic.rk4_steps_per_s": _ratio(counts["rk4_steps"], ode_s),
        "adiabatic.rk4_flops": counts["rk4_flops"],
        "adiabatic.rk4_gflops": _ratio(counts["rk4_flops"], ode_s) / 1e9,
        "matrix_kernel.matmul_peak_gflops": plain["matmul_peak_gflops"],
        "spin_model.coding_space.calls": fn_stat("spin_model.coding_space", "calls"),
        "matrix_kernel.expm_skew.calls": fn_stat("matrix_kernel.expm_skew", "calls"),
        "matrix_kernel.expm_skew.self_s": fn_stat("matrix_kernel.expm_skew", "self_s"),
        "reporting.bytes": counts["report_bytes"],
        "reporting.bytes_per_s": _ratio(counts["report_bytes"], metrics["reporting.self_s"]),
        "trace_overhead": sum(traced["latencies"]) / sum(plain["latencies"]) - 1.0,
    })
    metrics.update(cold)
    same = (plain["output_digest"] == traced["output_digest"]
            and plain["failed"] == traced["failed"] and counts == traced["counts"])
    claim, holds = PURPOSE[workload]
    detail = _common_detail(traced)
    detail.update({
        "untraced_digest_matches": same,
        "purpose": {"claim": claim, "holds": bool(holds(metrics))},
        "layer_edges": tr["layer_edges"],
        "computed_not_measured": ["synthesis.lattice_points (from scan bounds)",
                                  "adiabatic.rk4_flops (from array sizes and steps)"],
        "predictions": [" -> ".join(row) for row in PREDICTIONS],
    })
    correct = plain["wrong"] == 0 and traced["wrong"] == 0 and same
    return correct, traced["attempted"], traced["failed"], metrics, detail


def _common_detail(result):
    counts = result["counts"]
    return {
        "samples": result["jobs"],
        "passes": result["passes"],
        "fail_ratio": result["failed"] / result["attempted"],
        "failures": result["failures"],
        "wrong": result["wrong"],
        "output_digest": result["output_digest"],
        "gate_distance_suboptimal": counts["suboptimal"],
        "rotation_and_phase_searches": counts["searches"],
        "env": result["env"],
    }


def run_workload(spec, workload, seed, seconds, trace, deadline):
    measure = measure_traced if trace else measure_untraced
    correct, attempted, failed, values, detail = measure(workload, seed, seconds, deadline)
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    if set(values) != {m["name"] for m in declared}:
        raise BenchError("measured metrics do not match BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    why = {w["name"]: w["why"] for w in spec["workloads"]}[workload]
    detail = {"workload": workload, "why": why, "seed": seed, "trace": trace, **detail}
    for m in declared:
        print(f"{workload:14s} {m['name']:38s} {values[m['name']]!r:>24} {m['unit']}")
    print("detail " + json.dumps(detail, sort_keys=True))
    return {"correct": bool(correct), "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description="holonome benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not (ROOT / "src" / "holonome" / "__init__.py").is_file():
        print(f"error: holonome sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        # --workload all gives each workload the full single-invocation budget.
        deadline = time.monotonic() + BUDGET_S
        try:
            results[workload] = run_workload(spec, workload, args.seed, args.seconds,
                                             bool(args.trace), deadline)
        except (BenchError, subprocess.SubprocessError, OSError, ValueError) as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
    if len(results) == 1:
        final = results[workloads[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": v for w, r in results.items()
                        for name, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
