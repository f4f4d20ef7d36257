"""The benchmark harness still reports what ``BENCHMARK.json`` declares.

A benchmark run that exits 0 but reports fewer metrics than declared, for
instance because a traced layer's function was renamed away, is not a
result.  Each workload runs briefly, untraced and traced, and its last
stdout line must be a correct result carrying exactly the declared metric
names.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in CONTRACT["workloads"]])
def test_bench_run_reports_every_declared_metric(workload, trace):
    result = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.strip().splitlines()[-1])
    assert report["correct"] is True
    assert report["failed"] == 0
    declared = CONTRACT["per_layer" if trace else "end_to_end"]
    assert sorted(report["metrics"]) == sorted(m["name"] for m in declared), result.stderr
