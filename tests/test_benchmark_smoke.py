"""Each workload that BENCHMARK.json names runs through ``perfbench/run.py``
for one measured second and passes the benchmark's own checks, so a change
that breaks one of them fails here too."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_benchmark_workload_passes_its_checks(workload):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seconds", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
