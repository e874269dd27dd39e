"""Smoke test for the benchmark: each workload once at reduced size.

    python3 -m pytest bench/tests

Each run measures for zero seconds, so it times one sample (two when traced).  The test checks that every metric
BENCHMARK.json names is reported with its unit and that no task failed.  It
does not pin node counts: search changes may move them legitimately.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "0", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_reported_and_no_task_failed(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, record_line, result_line = proc.stdout.strip().splitlines()
    record, result = json.loads(record_line), json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    assert record["failed_frac"] == 0
    assert record["workload"] == workload and record["seed"] == 3
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_library_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = run_bench(tmp_path, "gallai-k3", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
