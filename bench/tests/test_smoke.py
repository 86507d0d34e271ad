"""The whole benchmark at ``--smoke`` size, and its refusal without a program."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

from conftest import BENCH, ROOT


def declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_smoke_runs_every_workload_and_both_passes(tmp_path) -> None:
    completed = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--smoke", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    result = json.loads(completed.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    benchmark = declared()
    names = [metric["name"] for metric in benchmark["end_to_end"] + benchmark["per_layer"]]
    for workload in (entry["name"] for entry in benchmark["workloads"]):
        for name in names:
            assert f"{workload}.{name}" in result["metrics"]
        trace = tmp_path / f"trace-{workload}.jsonl"
        spans = [json.loads(line) for line in trace.read_text().splitlines()]
        assert {span["trace"] for span in spans} == {f"{workload}-1"}
        assert sum(span["parent"] is None for span in spans) == 1
    rows = [line for line in completed.stdout.splitlines() if line.split()[:1] == ["unattributed"]]
    assert len(rows) == len(benchmark["workloads"])
    for metric in benchmark["end_to_end"]:
        for workload in (entry["name"] for entry in benchmark["workloads"]):
            assert result["metrics"][f"{workload}.{metric['name']}"]["value"] > 0
    runs = (tmp_path / "runs.jsonl").read_text().splitlines()
    assert len(runs) == 2 * len(benchmark["workloads"])


def test_refuses_to_run_without_the_program(tmp_path) -> None:
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    completed = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "corpus-batch", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
        env={key: value for key, value in os.environ.items() if key != "PYTHONPATH"},
    )
    assert completed.returncode != 0
    assert not completed.stdout.strip().endswith("}")
