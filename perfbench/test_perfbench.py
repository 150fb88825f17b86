"""Tests of the benchmark's own rules: percentiles, failure accounting,
seeded inputs, tracing and the metric names it prints."""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import jobs  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import worker  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import MIN_JOBS, WORKLOADS, JobStream  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


# -- percentiles and the sample-count rule ------------------------------------
def test_sample_count_rule():
    assert stats.min_samples(90) == 100
    assert stats.min_samples(99) == 1000
    assert stats.reportable(90, 100) and not stats.reportable(90, 99)
    assert stats.reportable(99, 1000) and not stats.reportable(99, 999)
    assert MIN_JOBS["gate-build"] >= stats.min_samples(99)
    assert all(n >= stats.min_samples(90) for n in MIN_JOBS.values())


def test_harrell_davis_percentiles():
    # On evenly spaced values the estimate sits at q n + 1/2, between ranks.
    values = list(range(1, 101))[::-1]
    assert stats.percentile(values, 50) == pytest.approx(50.5, abs=1e-6)
    assert stats.percentile(values, 90) == pytest.approx(90.5, abs=1e-6)
    assert stats.percentile(list(range(1, 1001)), 99) == pytest.approx(990.5, abs=1e-6)
    assert stats.percentile([7.0] * 100, 90) == pytest.approx(7.0)
    with pytest.raises(ValueError):
        stats.percentile(values[:99], 90)


# -- failure accounting -------------------------------------------------------
RX_ARGV = ["search", "--target", "rx", "--theta", "0.206", "--kappa-max", "50"]


def _tally(outcomes, passes=1):
    return worker.summarize([0.001] * len(outcomes), outcomes, passes)


def test_injected_exception_counts_as_failed(monkeypatch):
    def boom(spec):
        raise RuntimeError("injected")

    monkeypatch.setattr(jobs, "execute", boom)
    _, outcome = worker.run_job({"kind": "cli", "argv": RX_ARGV})
    assert outcome.failure.startswith("raised RuntimeError") and not outcome.wrong
    ok = jobs.Outcome()
    # Each job counts once, however many passes the run makes.
    result = _tally([outcome, ok, ok, ok], passes=3)
    assert (result["attempted"], result["failed"], result["wrong"]) == (4, 1, 0)


def test_run_passes_counts_each_job_once():
    # The counts must not depend on how many passes fit in the run's time.
    job_list = [{"kind": "cli", "argv": RX_ARGV},
                {"kind": "cli", "argv": ["two-qubit", "--kp", "333333", "--km", "666666",
                                         "--kprime", "1"]}]
    result = worker.run_passes(job_list, seconds=0)
    assert result["passes"] == worker.MIN_PASSES
    assert (result["attempted"], result["failed"], result["wrong"]) == (2, 1, 0)
    assert all(t > 0 for t in result["latencies"] + result["fastest_latencies"])


def test_injected_wrong_result_counts_as_failed_and_wrong(monkeypatch):
    code, out, err = jobs.execute({"kind": "cli", "argv": RX_ARGV})
    report = json.loads(out)
    assert code == 0 and jobs.check({"kind": "cli", "argv": RX_ARGV}, (code, out, err), None).failure is None
    report["outputs"]["params"]["kappa"] += 1  # no longer the minimum of the lattice
    monkeypatch.setattr(jobs, "execute", lambda spec: (0, json.dumps(report), ""))
    _, outcome = worker.run_job({"kind": "cli", "argv": RX_ARGV})
    assert outcome.wrong and outcome.failure.startswith("check")
    result = _tally([outcome, jobs.Outcome()])
    assert (result["failed"], result["wrong"]) == (1, 1)


def test_suboptimal_gate_distance_is_counted():
    # theta = 0.206 on x with kappa_max 50: the mod-2pi winner (kappa 34) has
    # a larger phase-invariant distance than kappa 5.
    spec = {"kind": "cli", "argv": RX_ARGV}
    outcome = jobs.check(spec, jobs.execute(spec), None)
    assert outcome.failure is None and outcome.suboptimal == 1 and outcome.lattice_points == 50


# -- seeded inputs ------------------------------------------------------------
def _blocks(workload, seed, count=4):
    stream = JobStream(workload, seed, 10**6)
    return [stream.next_block() for _ in range(count)]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_reproduces_inputs(workload):
    first = _blocks(workload, 7)
    assert first == _blocks(workload, 7)
    assert first != _blocks(workload, 8)


# -- real jobs, traced --------------------------------------------------------
def test_traced_block_of_each_workload_passes_checks():
    from holonome import synthesis

    original = synthesis.analytic_one_qubit_gate
    tracer = Tracer()
    tracer.install()
    try:
        assert synthesis.analytic_one_qubit_gate is not original  # re-bound copy wrapped
        for workload in WORKLOADS:
            block = JobStream(workload, 3, 10**6).next_block()
            if workload == "search-scan":  # keep the test fast: smallest scans only
                block = [s for s in block if "hadamard" in s.get("argv", [])][:1]
            for spec in block:
                _, outcome = worker.run_job(spec, tracer)
                assert not outcome.wrong, (spec, outcome.failure)
    finally:
        tracer.uninstall()
    assert synthesis.analytic_one_qubit_gate is original
    totals = tracer.layer_totals()
    assert set(totals) == set(LAYERS)
    assert totals["adiabatic"].calls > 0 and totals["cli"].calls > 0
    job = tracer.function("job")
    assert sum(t.self_s for t in totals.values()) <= job.total_s + 1e-9


# -- printed metric names -----------------------------------------------------
def _fake_result(mode):
    result = worker.summarize([0.001 + i * 1e-6 for i in range(1000)],
                              [jobs.Outcome(lattice_points=10, searches=1)] * 1000)
    result.update({"ready_at": 0.0, "setup_s": 0.2, "setup_wall_s": 0.25, "rss_kb": 40000,
                   "loop_wall_s": 1.0,
                   "env": {}, "matmul_peak_gflops": 10.0, "cal_min_s": 0.001,
                   "cal_median_s": 0.0012, "fastest_latencies": result["latencies"]})
    if mode == "traced":
        tracer = Tracer()
        tracer.span("job", tracer.span, "synthesis.search_rotation", lambda: None)
        result["trace"] = worker.trace_summary(tracer)
    return result


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metric_names_match_benchmark_json(monkeypatch, trace):
    monkeypatch.setattr(run, "spawn", lambda w, s, mode, secs, d: _fake_result(mode))
    monkeypatch.setattr(run, "cold_start", lambda d: {
        "cli.cold_python_s": 0.05, "cli.cold_numpy_import_s": 0.1,
        "cli.cold_holonome_import_s": 0.03})
    buf = io.StringIO()
    with redirect_stdout(buf):
        run.run_workload(SPEC, "gate-build", 1, 1, bool(trace), deadline=float("inf"))
    lines = buf.getvalue().splitlines()
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    printed = [line.split()[1] for line in lines if not line.startswith(("detail", "{"))]
    assert printed == [m["name"] for m in declared]
    units = [line.split()[3] for line in lines if not line.startswith(("detail", "{"))]
    assert units == [m["unit"] for m in declared]


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"]) <= 0.25
