"""Checks on the benchmark itself: the trace, the goldens, the contract.

    python3 -m pytest perfbench/tests -q

Each workload runs once traced (one untraced and one traced pass), so
the module takes about a minute, most of it ``figure-sweeps-cold``.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import run  # noqa: E402

run.import_program()
layers, workloads = run.layers, run.workloads

with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)

PHASES = tuple("compiler.%s_s" % phase for phase in layers.COMPILER_PHASES)
RESTRICTED = ("baseline/dual-port", "baseline/shared-bus",
              "baseline/single-port", "baseline/tri-port")


def _measure(workload, trace, min_passes):
    """One run at seed 1 that stops after ``min_passes`` passes and
    sets up once."""
    setups = run.SETUPS
    run.SETUPS = 1
    try:
        with run.scratch_dir("test-") as tmp:
            return run.measure(workload, 1, 0, trace, tmp,
                               min_passes=min_passes)
    finally:
        run.SETUPS = setups


@pytest.fixture(scope="module")
def traced():
    return {workload: _measure(workload, True, 2)
            for workload in run.WORKLOADS}


def _metrics(result):
    return {name: entry["value"] for name, entry in result["metrics"].items()}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_cells_match_untraced_and_golden(traced, workload):
    result, passes, traced_passes = traced[workload]
    assert result["correct"], [p for r in passes + traced_passes
                               for p in r.problems]
    assert result["failed"] == 0
    assert traced_passes[0].cells == passes[0].cells


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_per_layer_metric_present(traced, workload):
    result = traced[workload][0]
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    printed = {name: entry["unit"]
               for name, entry in result["metrics"].items()}
    assert printed == declared
    for name, value in _metrics(result).items():
        assert math.isfinite(value), name
        if name == "trace.overhead_frac":
            # A ratio of two noisy pass walls minus one: it can dip
            # below zero when the host speeds up, never below -1.
            assert value > -1.0
        else:
            assert value >= 0.0, name


def test_compiler_dominates_cold_sweeps(traced):
    metrics = _metrics(traced["figure-sweeps-cold"][0])
    share = sum(metrics[name] for name in PHASES) / metrics["trace.pass_s"]
    assert share >= 0.25
    assert metrics["compiler.cache_hits"] == 0
    assert metrics["compiler.compiles"] > 80


@pytest.mark.parametrize("workload", workloads.WARM)
def test_compiler_idle_in_warm_passes(traced, workload):
    metrics = _metrics(traced[workload][0])
    share = sum(metrics[name] for name in PHASES) / metrics["trace.pass_s"]
    assert share < 0.01
    assert metrics["compiler.compiles"] == 0
    assert metrics["compiler.cache_misses"] == 0


@pytest.mark.parametrize("workload",
                         ("paper-suite-warm", "figure-sweeps-cold"))
def test_batch_layer_idle_outside_seed_lanes(traced, workload):
    metrics = _metrics(traced[workload][0])
    for name, value in metrics.items():
        if name.startswith("batch."):
            assert value == 0.0, name


def test_batch_layer_busy_on_seed_lanes(traced):
    metrics = _metrics(traced["seed-lanes"][0])
    assert metrics["batch.lockstep_s"] > 0.0
    assert metrics["batch.rerun_s"] > 0.0
    assert metrics["batch.peel.mem-address"] > 0
    assert 0.0 < metrics["batch.peeled_lane_frac"] < 1.0


def test_restricted_interconnects_never_fuse(traced):
    __, passes, traced_passes = traced["figure-sweeps-cold"]
    for record in passes + traced_passes:
        restricted = {key: count for key, count in record.fused.items()
                      if key.split("/", 2)[2].rsplit("/", 1)[0]
                      in RESTRICTED}
        assert len(restricted) == 16
        assert not any(restricted.values()), restricted


def test_untraced_run_prints_the_end_to_end_metrics():
    result = _measure("paper-suite-warm", False, 1)[0]
    assert result["correct"] and result["attempted"] == 18
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: entry["unit"] for name, entry
            in result["metrics"].items()} == declared
    assert all(value > 0 for value in _metrics(result).values())


def test_seed_folds_onto_recorded_inputs():
    assert [workloads.input_seed(s) for s in (1, 8, 9, 0, -7)] \
        == [1, 8, 1, 8, 1]


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"),
                tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload",
         "paper-suite-warm", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert child.returncode != 0
    assert '"correct"' not in child.stdout
