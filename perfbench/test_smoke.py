"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench

Each workload runs with ``--tiny`` in both modes and must print every metric
``BENCHMARK.json`` declares, with zero failed checks. Counts must repeat
exactly between two runs; planted faults must show up as failed checks, not
as a crash; and without ``src/hareid`` the benchmark must fail without
printing a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNT_UNITS = {"count", "flop", "B"}


def bench(workload: str, trace: int, *extra: str, root: Path = ROOT, seed: int = 3):
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace), "--tiny", *extra],
        cwd=root, capture_output=True, text=True, timeout=170)
    return proc


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_reported(workload, trace):
    out = result(bench(workload, trace))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(out["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
    if not trace:
        assert all(out["metrics"][m["name"]]["value"] != 0 for m in declared)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly(workload):
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    first, second = (result(bench(workload, 1))["metrics"] for _ in range(2))
    counts = [name for name, unit in units.items() if unit in COUNT_UNITS
              and name != "trace.spans"]
    assert counts
    for name in counts:
        assert first[name]["value"] == second[name]["value"], name


def test_corrupt_feature_row_is_one_failed_check():
    out = result(bench("eval_gallery", 0, "--inject", "corrupt_feature"))
    assert out["correct"] is False and out["failed"] == 1


def test_broken_loss_reference_is_a_failed_check():
    out = result(bench("train_h64", 0, "--inject", "bad_reference"))
    assert out["correct"] is False and out["failed"] >= 1


def test_fails_without_a_result_when_the_package_is_absent(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOADS[0], 0, root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
