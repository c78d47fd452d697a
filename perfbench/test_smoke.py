"""Smoke test of the benchmark itself, on tiny inputs.

Run from the root of a checkout:  python3 -m pytest -q -p no:cacheprovider perfbench
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload, trace, cwd=ROOT, hash_seed="0"):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=600)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_reported_with_its_unit(workload, trace, section):
    result = _result(_run(workload, trace))
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    # the two caps fail on skeleton-scale; nothing fails elsewhere
    assert (result["failed"] > 0) == (workload == "skeleton-scale")
    if trace:
        assert result["metrics"]["trace.coverage_misses"]["value"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_call_counts_repeat_across_hash_seeds(workload):
    counts = []
    for hash_seed in ("1", "2"):
        proc = _run(workload, 1, hash_seed=hash_seed)
        metrics = _result(proc)["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items()
                       if v["unit"].startswith("count") and not k.startswith("trace.")})
        counts[-1]["inputs"] = proc.stdout.splitlines()[0].rpartition(" ")[2]
    assert counts[0] == counts[1]


def test_fails_without_program_sources():
    bare = ROOT / ".perfbench_tmp" / f"bare-{os.getpid()}"
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(WORKLOADS[0], 0, cwd=bare)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
