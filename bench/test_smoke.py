"""Smoke test of the benchmark at tiny sizes.

Run with ``python3 -m pytest bench/test_smoke.py``; tier-1 (``tests/``)
does not collect it.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from metrics import PER_LAYER

RUN = Path(__file__).resolve().parent / "run.py"
BENCHMARK = json.loads((RUN.parent.parent / "BENCHMARK.json").read_text())


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_end_to_end_metrics(workload):
    out = run(workload, 0)
    assert out["correct"] is True
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert set(out["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in out["metrics"].values())
    # Only the two known-defect inputs of corpus-small fail: one analyze each per cycle.
    if workload == "corpus-small":
        assert out["failed"] > 0 and out["failed"] % 2 == 0
    else:
        assert out["failed"] == 0


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_per_layer_metrics(workload):
    out = run(workload, 1)
    assert out["correct"] is True
    assert set(out["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]} == {m[0] for m in PER_LAYER}
    assert out["metrics"]["qec.analyze.self_s"]["value"] > 0


def test_refuses_without_the_library(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for f in RUN.parent.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "rep-d64", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
