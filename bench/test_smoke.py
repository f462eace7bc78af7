"""Smoke test of the benchmark itself: one pass per workload, with and without
tracing, every metric named in BENCHMARK.json emitted with its unit, and no
failed job on the pinned outputs.

    python3 -m pytest bench/test_smoke.py

It is kept out of the tier-1 suite (pyproject's testpaths) because one pass
over every workload takes about a minute.
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
ENGINE_CALLS = [m["name"] for m in SPEC["per_layer"]
                if m["name"].split(".")[0] in ("elements", "semidirect", "britton") and m["name"].endswith(".calls")]


def bench(cwd, workload, trace):
    argv = [sys.executable, *SPEC["command"][1:], "--workload", workload,
            "--seed", "0", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_one_pass(workload, trace):
    done = bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, done.stderr
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert result["metrics"]["ok_ratio"]["value"] == 1.0
        assert all(m["value"] > 0 for m in result["metrics"].values())
    elif workload == "valley":
        # the valley workload exists to run without any element engine
        assert all(result["metrics"][name]["value"] == 0 for name in ENGINE_CALLS)


def test_refuses_without_program():
    bare = BENCH / "_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        done = bench(bare, "valley", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
