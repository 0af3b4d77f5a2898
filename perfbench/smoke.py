"""Smoke test of the benchmark: every workload at minimal length, both modes.

    python3 perfbench/smoke.py
    python3 -m pytest -q perfbench/smoke.py

Checks that each run passes its correctness checks, prints every metric that
BENCHMARK.json names with its unit, and that a tree without the program's
sources is refused without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import REPORT_ONLY, SPEC  # noqa: E402


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=175,
    )


def _printed(lines, workload, name, unit) -> bool:
    return any(
        line.split()[:2] == [workload, name] and (not unit or line.split()[3] == unit)
        for line in lines
    )


def check_workload(workload: str, trace: int) -> None:
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, lines
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    printed = dict(expected)
    if not trace:
        printed.update(REPORT_ONLY)
        printed["wall_s.tail"] = ""  # reads "n/a" without a unit when passes are few
        if workload != "practical":
            del printed["empirical_rmse_m"]
    missing = [n for n, u in printed.items() if not _printed(lines[:-1], workload, n, u)]
    assert not missing, missing


def test_every_workload_prints_every_metric():
    # large-swarm is not gated in BENCHMARK.json but runs with the same contract
    for workload in ("studies", "practical", "large-swarm"):
        for trace in (0, 1):
            check_workload(workload, trace)


def test_refuses_a_tree_without_sources():
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, "--workload", SPEC["workloads"][0]["name"], "--seconds", "1")
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    test_refuses_a_tree_without_sources()
    test_every_workload_prints_every_metric()
    print("smoke: ok")
