"""Smoke test of the benchmark itself.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload at a tiny size, traced and untraced, and checks that the
result line carries exactly the metrics BENCHMARK.json names, each printed
with its unit.  Also checks that the benchmark refuses to run without the
zograd sources next to it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
COMMAND = [sys.executable] + SPEC["command"][1:]


def _bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        COMMAND + ["--workload", workload, "--seed", "7", "--seconds", "1",
                   "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, group", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_unit(workload, trace, group):
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC[group]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    for name, unit in want.items():
        value = result["metrics"][name]["value"]
        assert isinstance(value, (int, float))
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}") for line in lines), name
    assert any(line.startswith("operations attempted") for line in lines)
    assert any(line.startswith("experiments.csv_bad_cells = ") for line in lines)


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "out", "__pycache__"))
    proc = _bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
