"""Smoke test of the benchmark at tiny sizes.

Each workload must print, as its last stdout line, every metric that
BENCHMARK.json declares for its trace mode, with the declared unit, and
pass every output check. Without the package sources next to it, the
benchmark must fail without printing a result.
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
REGIMES = (".long_h1", ".long_h0", ".short_h1", ".targeted_h1")


def _run(workload, trace, cwd=ROOT, size="tiny", seed=0):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", "0",
            "--trace", str(trace)]
    if size:
        argv += ["--size", size]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


def _own_layer(workload, name):
    """Whether a per-layer metric belongs to the layers this workload runs."""
    if name.startswith("experiments_cli.") and name.endswith("_ms"):
        return True  # every workload times the analytic CLI commands
    if workload == "percolation":
        return name.endswith((".pl", ".er"))
    if workload == "detection":
        return name.endswith(REGIMES)
    return name.startswith(("graph_engine.", "experiments_cli.")) and name.count(".") == 1


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_declared_metrics(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    if trace:
        own_times = [n for n, unit in declared.items() if unit in ("s", "ms") and _own_layer(workload, n)]
        assert own_times
        assert all(result["metrics"][n]["value"] > 0 for n in own_times), result["metrics"]
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values()), result["metrics"]


def test_percolation_checks_c04_on_its_own_inputs_at_any_seed():
    proc = _run("percolation", 0, seed=1)
    assert proc.returncode == 0, proc.stderr
    *_, info_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert result["correct"] and result["failed"] == 0, proc.stdout
    checks = {c["name"]: c["detail"] for c in json.loads(info_line)["perfbench"]["checks"]}
    assert "seed 1: estimate=" in checks["c04.pl"] and "c04.er" in checks


def test_fails_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = _run("detection", 0, cwd=tmp_path, size=None)
    assert proc.returncode != 0
    assert proc.stdout == ""
