"""Smoke test of the benchmark harness at a tiny size; finishes in seconds.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402


def harness(workload: str, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload",
         workload, "--seed", "42", "--seconds", "1", "--trace", str(trace),
         "--steps", "400"],
        cwd=cwd, capture_output=True, text=True, timeout=120)
    return proc, proc.stdout.strip().splitlines()


def units(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_end_to_end_metric_is_printed_with_its_unit(workload):
    proc, lines = harness(workload, 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert units(result) == {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    printed = {tuple(line.split()[::2]) for line in lines[:-1]}
    for name, unit in {**run.END_TO_END, **run.SUMMARY_ONLY}.items():
        assert (name, unit) in printed, name
    machine = json.loads(next(line for line in lines
                              if line.startswith("machine: "))[9:])
    assert machine["seed"] == 42 and machine["nproc"] >= 1
    assert {"cpu", "python", "numpy", "commit", "samples_behind"} <= set(machine)


def test_traced_run_reports_every_per_layer_metric():
    proc, lines = harness("sweep", 1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert result["correct"]
    assert units(result) == {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    value = {name: m["value"] for name, m in result["metrics"].items()}
    steps = 400 // 2 * 4
    assert value["ekf.steps"] == steps == value["ecm.samples"]
    assert value["multimodel.filter_steps"] > steps
    assert value["scenario.artifact_bytes"] > 0
    assert value["trace.coverage"] > 0.9


def test_absent_target_is_reported_not_fatal():
    tracer = spans.Tracer(targets=[
        ("lfpsoc.multimodel", "no_such_kernel", "multimodel.interval", None),
        ("lfpsoc.ekf", "run_ekf", "ekf", spans.count_ekf)])
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["lfpsoc.multimodel.no_such_kernel"]
    metrics = spans.op_metrics({}, tracer)
    assert metrics["ekf.run_s"] == 0.0
    assert metrics["multimodel.run_s"] is None


def test_without_sources_it_fails_and_prints_no_result():
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc, lines = harness("reference", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)
