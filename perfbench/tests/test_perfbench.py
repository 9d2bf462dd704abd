"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import inputs  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          capture_output=True, text=True, timeout=300, cwd=cwd)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.5",
                     "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {e["name"]: e["unit"] for e in wanted}
    printed = [line for line in lines if line.startswith("metric ")]
    extra = [] if trace else [("failed_ratio", "ratio")]
    for name, unit in [(e["name"], e["unit"]) for e in wanted] + extra:
        assert any(line.startswith(f"metric {name} = ") and line.endswith(f" {unit}")
                   for line in printed), name
    assert any(line.startswith("# env ") and "blas_threads=" in line for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_same_inputs(workload):
    first = inputs.generate(workload, 7)
    assert inputs.generate(workload, 7).digest == first.digest
    assert inputs.generate(workload, 8).digest != first.digest


def _scaled_model(result):
    model = dataclasses.replace(result.model, M_blocks=1.5 * result.model.M_blocks)
    return dataclasses.replace(result, model=model)


@pytest.mark.parametrize("workload, target, corrupt", [
    ("extend-scalar", "maxent", lambda solve: lambda *a: _scaled_model(solve(*a))),
    ("cli-mix", "cli", lambda main: lambda argv: main(argv) + 1),
])
def test_corrupted_result_counts_as_failed(workload, target, corrupt, tmp_path, monkeypatch):
    import run
    import workloads
    module = getattr(workloads, target)
    name = "solve" if target == "maxent" else "main"
    requests = workloads.build_requests(inputs.generate(workload, 1, tiny=True).requests,
                                        str(tmp_path))
    monkeypatch.setattr(module, name, corrupt(getattr(module, name)))
    loop = workloads.closed_loop(requests, cycles=1)
    assert loop.attempted == len(requests)
    assert run.end_to_end(loop, 1.0, len(requests))["failed_ratio"] == 1.0


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(str(tmp_path), "--workload", "cli-mix", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
