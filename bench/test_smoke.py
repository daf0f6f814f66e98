"""Smoke test of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest -q bench

Sends one tiny request per family and workload through the client's
request path, checks that a wrong answer is caught, and checks the result
line of ``run.py`` against ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import client  # noqa: E402  (puts src/ on the path)
import workloads  # noqa: E402
from topsym.cli import main as topsym_main  # noqa: E402

TINY = [
    ("ngon", (5,)),
    ("reeb_ball", (1,)),
    ("brieskorn", (2,)),
    ("grid_disk", (2, 3, 3)),
    ("grid_annulus", (5, 1, None)),
    ("grid_annulus", (6, 1, 2)),
]


def tiny(family: str, args, seed: int = 0) -> workloads.Space:
    rng = random.Random(seed)
    return workloads.relabeled(workloads.FAMILIES[family](rng, *args), rng, 100)


@pytest.mark.parametrize("workload", sorted(workloads.SLOTS))
@pytest.mark.parametrize("family,args", TINY)
def test_tiny_request_passes_its_check(workload, family, args, tmp_path):
    record = client.run_request(topsym_main, workload, tiny(family, args), 0, str(tmp_path))
    assert record["status"] == "ok", record["reason"]
    assert list(tmp_path.iterdir()) == []


WRONG = {
    "analyze-mix": dict(table_pos={0: 1}),
    "verify-mix": dict(duality="skipped"),
    "double-large": dict(faces=11),
}


@pytest.mark.parametrize("workload", sorted(workloads.SLOTS))
def test_wrong_answer_is_caught(workload, tmp_path):
    space = replace(tiny("grid_disk", (2, 3, 3)), **WRONG[workload])
    record = client.run_request(topsym_main, workload, space, 0, str(tmp_path))
    assert record["status"] == "wrong"


def test_crash_counts_as_failure(tmp_path):
    def crash(argv):
        raise RecursionError("maximum recursion depth exceeded")

    record = client.run_request(crash, "analyze-mix", tiny("ngon", (5,)), 0, str(tmp_path))
    assert record["status"] == "error"


def test_inputs_follow_the_seed():
    first = [workloads.space_for("verify-mix", 7, i) for i in range(10)]
    assert first == [workloads.space_for("verify-mix", 7, i) for i in range(10)]
    assert first != [workloads.space_for("verify-mix", 8, i) for i in range(10)]
    assert len({s.maximal for s in first}) == len(first)


def _result(trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify-mix", "--seed", "1", "--seconds", "0",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_matches_benchmark_json(trace, section):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = {m["name"]: m["unit"] for m in json.load(handle)[section]}
    result = _result(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "analyze-mix", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout == ""
