"""Reduced-size smoke test of the benchmark itself.

    python3 -m pytest -q perfbench/test_smoke.py

Every workload runs at `--small` sizes for one second, untraced and traced,
and must print exactly the metrics BENCHMARK.json names, with their units.
A checker given a deliberately wrong reference must count the unit as
failed, and the benchmark must refuse to run without the vqekit sources.
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


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
            "--seconds", "1", "--trace", str(trace), "--small",
        ],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_its_unit(workload, trace, section):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for m in result["metrics"].values():
        assert math.isfinite(m["value"])


@pytest.fixture(scope="module")
def workloads_module():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    return workloads


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_reference_is_counted_as_failure(workloads_module, workload):
    wl = workloads_module.WORKLOADS[workload](3, small=True)
    wl.setup()
    good = workloads_module.Record()
    wl.task(0, good)
    assert good.attempted >= 1 and good.failed == 0, good.failures
    bad = workloads_module.Record(skew=1.0)
    wl.task(0, bad)
    assert bad.attempted == good.attempted
    assert bad.failed == bad.attempted, bad.failures


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
