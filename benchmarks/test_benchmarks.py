"""Smoke tests of the benchmark: a seconds-long run of every workload.

    python3 -m pytest -q benchmarks
"""

from __future__ import annotations

import copy
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH_DIR)

import harness  # noqa: E402
import tracer  # noqa: E402


def _run(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("benchmarks", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["pretrain", "finetune", "infer"])
def test_smoke_prints_every_declared_metric_with_its_unit(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "0", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = harness.declared_metrics()[trace]
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == declared[name], name
        assert math.isfinite(metric["value"]), name
        if trace == 0:
            assert metric["value"] > 0, name


def test_declared_per_layer_metrics_are_the_ones_the_tracer_gives():
    assert harness.declared_metrics()[1] == harness.layer_metric_units()


def _function_bindings() -> dict:
    return {
        (m.__name__, attr): value
        for m in tracer._vmim_modules()
        for attr, value in vars(m).items()
        if callable(value)
    }


def test_no_wrapper_survives_a_traced_run_and_counts_repeat():
    before = _function_bindings()
    first = harness.run_workload("finetune", seed=2, seconds=0, trace=True)
    assert tracer.surviving_wrappers() == []
    after = _function_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    second = harness.run_workload("finetune", seed=3, seconds=0, trace=True)
    for out in (first, second):
        assert out["result"]["correct"], out["report"]["problems"]
    for count in ("autodiff.tape_nodes", "autodiff.apply.gelu.calls", "checkpoint.save_checkpoint.calls"):
        assert first["result"]["metrics"][count] == second["result"]["metrics"][count]
        assert first["result"]["metrics"][count]["value"] > 0


def test_perturbed_reference_value_counts_as_a_failed_operation():
    reference = copy.deepcopy(harness.load_reference())
    reference["pretrain"]["reference/mae"]["mae.losses"][0] *= 1.0 + 1e-4
    out = harness.run_workload("pretrain", seed=3, seconds=0, trace=False, reference=reference)
    result = out["result"]
    assert not result["correct"]
    assert result["failed"] == harness.SETUP_REPEATS
    assert result["attempted"] > result["failed"]  # the run went on to its timed calls
    assert all("mae.losses" in p for p in out["report"]["problems"])


def test_reference_check_accepts_differences_within_tolerance():
    reference = harness.load_reference()["finetune"]
    nudged = copy.deepcopy(reference)
    nudged["reference"]["seg.losses"][0] *= 1.0 + harness.RTOL / 10
    from workloads import Outcome

    outcome = Outcome("seg", "reference", outputs=nudged["reference"])
    assert harness.compare_reference([outcome], reference) is None
    nudged["reference"]["seg.losses"][0] *= 1.0 + harness.RTOL * 10
    assert harness.compare_reference([outcome], reference) is not None


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(str(tmp_path), "--workload", "pretrain", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
