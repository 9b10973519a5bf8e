"""Smoke test of the benchmark: tiny inputs on the same code path.

Every workload runs once untraced and once traced; each must print every
metric BENCHMARK.json names, with its unit, and pass the output checks.

Run from the root of the repository: python3 -m pytest perfbench
"""

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_benchmark(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_metric_and_passes_checks(workload, trace):
    proc = run_benchmark(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    report = json.loads(lines[-2].split(" ", 1)[1])
    assert report["output_checks"] == "passed"
    assert report["workload"] == workload and report["seed"] == 3
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert re.search(rf"^{re.escape(name)}\s+\S+ {re.escape(unit)}$", proc.stderr, re.M), name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_output_checks_catch_a_broken_trace():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from checks import trace_violations
    from cloudsched.simulator import run_simulation
    from cloudsched.workload import DagWorkflow, Task, VmSpec, WorkloadSet

    tasks = [Task(id=i, length=1000.0) for i in range(3)]
    wl = WorkloadSet([VmSpec(id=0), VmSpec(id=1)], DagWorkflow(tasks, [(0, 2)]))
    assignment = {0: 0, 1: 0, 2: 1}
    trace = run_simulation(wl, assignment)
    assert trace_violations(trace, wl, assignment) == []

    early = dataclasses.replace(trace.records[1], start=trace.records[0].start)
    trace.records[1] = early
    problems = trace_violations(trace, wl, assignment)
    assert any("overlap" in p for p in problems)
    assert trace_violations(run_simulation(wl, assignment), wl, {0: 0, 1: 1, 2: 1})
