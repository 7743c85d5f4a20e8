"""Smoke tests of the benchmark itself, on the h = 1/8 instances.

    python3 -m pytest -q perfbench/smoke.py

They check that every metric named in ``BENCHMARK.json`` is emitted, that
no operation fails, that a traced run leaves no wrapper behind and keeps
its outputs bit-identical, and that the benchmark refuses to run without
the program's source.  The file name keeps them out of the repository's
default test collection.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
from tracer import Tracer, surviving_wrappers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)


def _run(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _smoke(workload: str, trace: int):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
                "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(HERE, "results", f"{workload}.smoke.seed3.trace{trace}.json")) as fh:
        return result, json.load(fh)


def _assert_metrics(metrics: dict, declared: list):
    assert sorted(metrics) == sorted(m["name"] for m in declared)
    for m in declared:
        assert metrics[m["name"]]["unit"] == m["unit"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    result, record = _smoke(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert record["failed_frac"] == 0
    _assert_metrics(result["metrics"], BENCH["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    env = record["environment"]
    for key in ("python", "numpy", "scipy", "nproc", "ckdtree_workers", "thread_env", "seed", "src_sha256"):
        assert key in env
    assert env["seed"] == 3


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_layer_metric_and_leaves_no_wrapper(workload):
    result, record = _smoke(workload, 1)
    assert result["correct"] and result["failed"] == 0
    _assert_metrics(result["metrics"], BENCH["per_layer"])
    hygiene = record["hygiene"]
    assert hygiene["surviving_wrappers"] == []
    assert hygiene["nesting_violations"] == 0
    assert hygiene["outputs_bit_identical"]
    assert hygiene["self_sum_gap_s"] <= hygiene["self_sum_slack_s"]
    assert record["samples"]["traced_jobs"] >= 1


def test_tracer_restores_every_attribute_after_a_failing_call():
    import mmtrace
    import mmtrace.functionals
    import mmtrace.measures

    original = mmtrace.measures.weighted_stats
    original_members = mmtrace.FiniteMetricMeasureSpace.members
    tracer = Tracer(mmtrace)
    tracer.install()
    try:
        assert mmtrace.functionals.weighted_stats is mmtrace.measures.weighted_stats
        assert mmtrace.measures.weighted_stats is not original
        with pytest.raises(mmtrace.InvalidScale):
            mmtrace.k_of_r(-1.0)
        mmtrace.weighted_stats([1.0, 2.0], [1.0, 1.0])
    finally:
        tracer.uninstall()
    assert surviving_wrappers(mmtrace) == []
    assert mmtrace.measures.weighted_stats is original
    assert mmtrace.functionals.weighted_stats is original
    assert mmtrace.FiniteMetricMeasureSpace.members is original_members
    assert tracer.stats["space.k_of_r"][0] == 1
    assert tracer.stats["measures.weighted_stats"][0] == 1


def test_reference_check_flags_drift_beyond_rtol():
    ref = {"common": {"cell": {"value": 2.0, "part:a": 1.5, "part:b": 0.5, "n": 3}}, "seeds": {},
           "rtol": 1e-10}

    def ops(value, a, n):
        return {"cell": {"seeded": False, "error": None,
                         "values": {"value": value, "part:a": a, "part:b": 0.5, "n": n}}}

    assert checks.check(ops(2.0, 1.5, 3), ref, 0) == {"cell": []}
    assert checks.check(ops(2.0 + 1e-12, 1.5 + 1e-12, 3), ref, 0) == {"cell": []}
    assert checks.check(ops(2.0 + 1e-6, 1.5 + 1e-6, 3), ref, 0)["cell"]
    assert checks.check(ops(2.0, 1.5, 4), ref, 0)["cell"]
    # the parts must compose to the total even without a reference
    bad = {"trace_simple": {"seeded": True, "error": None,
                            "values": {"value": 2.0, "part:a": 1.5, "part:b": 0.6}}}
    assert checks.check(bad, None, 0)["trace_simple"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "work", "__pycache__"))
    proc = _run("--workload", "simple3d", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_probe_runs_on_a_small_grid():
    proc = subprocess.run([sys.executable, os.path.join(HERE, "probe.py"), "--h", "1/8"], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "cold trace_norm_simple(l=1)" in proc.stdout
