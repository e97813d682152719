"""Smoke test of the benchmark: every workload at smoke size, in both modes.

Run from the repository root with ``python3 -m pytest perfbench``.
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
sys.path.insert(0, str(HERE))

from checks import check_run  # noqa: E402


def _run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_reported_with_its_unit(workload, trace):
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--size", "smoke"], ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= (2 if trace else 3)  # a traced run is one pair at least
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert "outputs_sha256 none" not in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "train-10x10", "--seed", "1", "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _mission_run(tmp_path: Path, route: list[list[int]], time_s: int) -> tuple[str, dict]:
    (tmp_path / "effective_config.txt").write_text("world_width = 5\nworld_height = 5\n")
    report = {"predictions": time_s, "corrections": 0, "random": 0, "time_s": time_s,
              "route": route}
    (tmp_path / "missions.json").write_text(json.dumps({"reports": [report]}))
    result = {"error": None, "exit_code": 0, "losses_finite": True, "params_finite": True}
    return str(tmp_path), result


def test_checks_accept_a_valid_route(tmp_path):
    assert check_run("evaluate", *_mission_run(tmp_path, [[0, 0], [0, 1], [1, 1]], 2)) == []


@pytest.mark.parametrize("route,time_s", [
    ([[0, 0], [1, 1]], 1),            # diagonal move
    ([[0, 4], [0, 5]], 1),            # leaves the world
    ([[0, 0], [0, 1]], 2),            # one cell short of time_s + 1
])
def test_checks_reject_a_bad_route(tmp_path, route, time_s):
    assert check_run("evaluate", *_mission_run(tmp_path, route, time_s))
