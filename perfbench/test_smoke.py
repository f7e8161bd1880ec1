"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest perfbench/test_smoke.py -q

Every workload runs untraced and traced, every op's check passes, every
metric printed matches BENCHMARK.json by name and unit, two traced runs
with one seed give identical counts, another seed gives other inputs,
and a directory without the library's source gets no result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# metrics that must repeat exactly: counts and the ratios built from counts
DETERMINISTIC_UNITS = {"count", "ratio"}


def run(workload, seed, trace, ops, cwd=ROOT, script=BENCH / "run.py"):
    argv = [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace), "--ops", str(ops)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    context, result = json.loads(lines[-2])["context"], json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    return context, result


def units(result):
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload(workload):
    context, result = parse(run(workload, 1, 0, ops=20))
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(metric["value"] > 0 for metric in result["metrics"].values())

    first_context, first = parse(run(workload, 1, 1, ops=3))
    _, second = parse(run(workload, 1, 1, ops=3))
    assert units(first) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert first_context["inputs_sha256"] == context["inputs_sha256"]
    deterministic = [name for name, unit in units(first).items()
                     if unit in DETERMINISTIC_UNITS and name != "trace.overhead_ratio"]
    assert {n: first["metrics"][n]["value"] for n in deterministic} == {
        n: second["metrics"][n]["value"] for n in deterministic}

    other_context, _ = parse(run(workload, 2, 0, ops=1))
    assert other_context["inputs_sha256"] != context["inputs_sha256"]


def test_refuses_without_library_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    script = tmp_path / BENCH.name / "run.py"
    proc = run(SPEC["workloads"][0]["name"], 1, 0, ops=1, cwd=tmp_path, script=script)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
