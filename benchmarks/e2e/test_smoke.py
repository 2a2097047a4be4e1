"""Tier-1 smoke test of the end-to-end benchmark (``run.py --smoke``).

Asserts the benchmark's shape, never a time: every metric that
``BENCHMARK.json`` names is printed and finite on every workload, counts
are whole numbers, and the distributed layer is silent off ``dist-mp``.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(*args: str) -> str:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", *args],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    stdout = run_benchmark("--out", str(out))
    return stdout, json.loads(out.read_text())


def test_every_metric_reported_on_every_workload(smoke):
    stdout, results = smoke
    assert results["claim"] is None
    assert set(results["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    for name, result in results["workloads"].items():
        assert result["failed"] == 0 and result["attempted"] > 0
        for section in ("end_to_end", "per_layer"):
            for metric in SPEC[section]:
                value = result[section][metric["name"]]
                assert math.isfinite(value), (name, metric["name"])
                assert f"{name}/{metric['name']} " in stdout
                if metric["unit"] == "count":
                    assert value == int(value), (name, metric["name"], value)


def test_distributed_layer_is_silent_off_dist_mp(smoke):
    _, results = smoke
    distributed = [m["name"] for m in SPEC["per_layer"]
                   if m["name"].startswith(("runtime.dist_", "runtime.mp_"))]
    assert distributed
    for name, result in results["workloads"].items():
        values = [result["per_layer"][metric] for metric in distributed]
        if name == "dist-mp":
            assert result["per_layer"]["runtime.mp_run_s"] > 0
            assert result["per_layer"]["runtime.mp_tasks"] > 0
        else:
            assert not any(values), (name, dict(zip(distributed, values)))


def test_last_line_is_the_result_object():
    stdout = run_benchmark("--workload", "dense-l2svm", "--trace", "0")
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["metrics"].keys() == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0
