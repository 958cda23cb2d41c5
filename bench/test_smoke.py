"""Smoke test: every workload at tiny size emits every declared metric.

Runs bench/run.py the way a benchmark harness calls it, with `--scale tiny`, and
checks the result line against BENCHMARK.json: each end-to-end metric in an
untraced run and each per-layer metric in a traced run, with its unit.
Two traced runs of one seed must agree on every exact count.

    python3 -m pytest -q bench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
LAYERS = ("linalg", "grid", "geometry", "flows", "diagnostics", "extensions",
          "scenarios", "snapshots", "cli", "bench")
EXACT_SUFFIXES = (".calls", ".matrices", ".bytes", ".bytes_computed")
EXACT_NAMES = {"flows.steps", "flows.rejected", "trace.spans"}


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


def _units(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result = _run(workload, 0)
    assert _units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_repeat_exactly(workload):
    first, second = _run(workload, 1), _run(workload, 1)
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert _units(first) == declared
    exact = [name for name in declared
             if name.endswith(EXACT_SUFFIXES) or name in EXACT_NAMES]
    assert {n: first["metrics"][n]["value"] for n in exact} == \
        {n: second["metrics"][n]["value"] for n in exact}

    # the layers' self times account for the traced set-up and pass
    m = {name: v["value"] for name, v in first["metrics"].items()}
    assert sum(m[f"{layer}.self_s"] for layer in LAYERS) == pytest.approx(
        m["trace.setup_s"] + m["trace.solve_s"], rel=1e-6)
