"""Smoke test of the session benchmark harness on a tiny cohort.

Run from the repository root: ``python3 -m pytest -q sessionbench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "sessionbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def _all_workloads(trace, sessions):
    process = _run(
        "--workload", "all", "--cohort", "small", "--seconds", "0",
        "--sessions", sessions, "--trace", trace,
    )
    assert process.returncode == 0, process.stderr
    result = json.loads(process.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert process.stdout.count("error_rate: 0 ") == len(WORKLOADS)
    section = "per_layer" if trace == "1" else "end_to_end"
    expected = {
        f"{workload}/{metric['name']}": metric["unit"]
        for workload in WORKLOADS
        for metric in SPEC[section]
    }
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    return {k: v["value"] for k, v in result["metrics"].items()}


def test_end_to_end_metrics_are_emitted_with_no_errors():
    metrics = _all_workloads(trace="0", sessions="1")
    for workload in WORKLOADS:
        assert metrics[f"{workload}/success_rate"] == 1


def test_traced_ledger_counts_the_known_calls():
    # A traced run needs two sessions: one traced, one for the overhead.
    metrics = _all_workloads(trace="1", sessions="2")
    assert metrics["cold-analyze/data.transactions.calls"] == 3
    assert metrics["cold-analyze/cache.fingerprint.calls"] == 1
    assert metrics["warm-revisit/cache.fingerprint.calls"] == 2
    assert metrics["warm-revisit/cache.hit_ratio"] == 1
    assert metrics["pooled-analyze/executor.tasks"] > 0
    for workload in WORKLOADS:
        assert 0.95 <= metrics[f"{workload}/trace.coverage"] <= 1.0


def test_exits_nonzero_without_the_engine_sources(tmp_path):
    shutil.copytree(
        BENCH_DIR,
        tmp_path / "sessionbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    process = _run("--workload", WORKLOADS[0], cwd=tmp_path)
    assert process.returncode != 0
    assert "correct" not in process.stdout
