"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench -q

Every workload runs untraced and twice traced.  Each run reports exactly the
metrics BENCHMARK.json declares, with their units, and no failed operation;
the traced call counts repeat exactly between the two traced runs.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _units(summary):
    return {k: m["unit"] for k, m in summary["result"]["metrics"].items()}


def _counts(summary):
    return {k: m["value"] for k, m in summary["result"]["metrics"].items()
            if m["unit"] in run.COUNT_UNITS}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_at_tiny_size(workload):
    plain, _ = run.measure(workload, 0, 0, trace=0, size="tiny")
    first, _ = run.measure(workload, 0, 0, trace=1, size="tiny")
    second, _ = run.measure(workload, 0, 0, trace=1, size="tiny")
    for summary in (plain, first, second):
        result = summary["result"]
        assert result["correct"] and result["failed"] == 0, summary["problems"]
        assert result["attempted"] > 0
    assert _units(plain) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert _units(first) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert first["counts_repeat"] and second["counts_repeat"]
    assert _counts(first) == _counts(second)
    assert all(v > 0 for v in (m["value"] for m in
                               plain["result"]["metrics"].values()))


def test_fails_without_the_program(tmp_path):
    """A directory holding only the benchmark exits nonzero, printing no result."""
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc_long",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
