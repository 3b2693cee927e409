"""Smoke test of the benchmark at minimal sizes.

Run from the repository root with ``python -m pytest perfbench/test_smoke.py``.
The tier-1 suite does not collect it (pytest's testpaths is ``tests``).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("seed,trace", [(1, 0), (7, 0), (1, 1)])
def test_every_metric_emitted_and_nothing_fails(workload, seed, trace):
    res = _run(ROOT, workload, seed, trace)
    assert res.returncode == 0, res.stderr[-2000:]
    result = json.loads(res.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec)
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert result["attempted"] >= 1
    assert result["failed"] == 0, res.stdout[-3000:]
    assert result["correct"]
    if not trace:
        assert result["metrics"]["ok_ratio"]["value"] == 1.0  # fail_ratio = 0


def test_refuses_to_run_without_the_program():
    bare = HERE / "_work" / "bare_checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
        res = _run(bare, WORKLOADS[0], 1, 0)
        assert res.returncode != 0
        assert '"metrics"' not in res.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
