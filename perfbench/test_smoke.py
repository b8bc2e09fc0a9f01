"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload once untraced and once traced (a traced run also runs
the probe commands), and checks that each metric is printed with its unit
and that the result line carries exactly the metrics BENCHMARK.json
declares.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import run

ROOT = Path(__file__).resolve().parent.parent


def declared():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]},
            [w["name"] for w in bench["workloads"]])


def test_every_workload_emits_every_metric():
    end_to_end, per_layer, workloads = declared()
    assert workloads == list(run.WORKLOADS)
    assert end_to_end == run.END_TO_END
    assert per_layer == {k: unit for k, (unit, in_json)
                         in run.PER_LAYER.items() if in_json}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all",
         "--scale", "smoke", "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    for name in workloads:
        for trace, wanted in ((0, end_to_end), (1, per_layer)):
            prefix = f"{name}.trace{trace}."
            got = {k[len(prefix):]: v for k, v in result["metrics"].items()
                   if k.startswith(prefix)}
            assert {k: v["unit"] for k, v in got.items()} == wanted
            assert all(isinstance(v["value"], (int, float))
                       for v in got.values())
    table = [line.split() for line in lines if line.startswith("#   ")]
    printed = {(row[1], row[3]) for row in table if len(row) >= 4}
    everything = {**run.END_TO_END, "fail_ratio": "ratio",
                  **{k: unit for k, (unit, _) in run.PER_LAYER.items()}}
    assert set(everything.items()) <= printed


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "run-n1e6",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_seed_variable_does_not_reach_the_program(monkeypatch):
    monkeypatch.setitem(os.environ, "DFS_FRONTIER_BASE_SEED", "99")
    env = run.child_env()
    assert "DFS_FRONTIER_BASE_SEED" not in env
    assert env["PYTHONPATH"] == str(ROOT / "src")
