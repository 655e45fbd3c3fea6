"""Smoke and determinism tests for the benchmark.

Run with ``python -m pytest bench``; the repository's default test run
collects only ``tests/``, so these stay out of its time.  Each workload runs
at a tiny length in a subprocess, exactly as the benchmark is invoked.
"""

from __future__ import annotations

import functools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
END_TO_END = {
    "steps_per_s": "steps/s",
    "run_ms_p50": "ms",
    "run_ms_tail": "ms",
    "steps_to_test_p50": "steps",
    "solve_rate": "fraction",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}
MEASURED = ("steps_per_s", "run_ms_p50", "run_ms_tail", "setup_s", "peak_rss_mib", "trace_overhead")


def invoke(workload: str, trace: int, *, hash_seed: str = "0", cwd: Path = ROOT):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    return subprocess.run(
        [
            sys.executable, str(cwd / "bench" / "run.py"),
            "--workload", workload, "--seed", "5", "--seconds", "0.1",
            "--trace", str(trace), "--runs", "3",
        ],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


@functools.cache
def bench(workload: str, trace: int, hash_seed: str = "0", repeat: int = 0):
    """(record, result) of one tiny run; ``repeat`` asks for a separate run."""
    done = invoke(workload, trace, hash_seed=hash_seed)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def exact_counts(result: dict) -> dict:
    """Every metric that is a count or a ratio of counts, not a measurement."""
    return {
        name: metric["value"]
        for name, metric in result["metrics"].items()
        if name not in MEASURED and not name.endswith((".ns_per_call", ".self_share"))
    }


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_reported_with_its_unit(workload, trace):
    record, result = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 3
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    reported = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert reported == {metric["name"]: metric["unit"] for metric in declared}
    if not trace:
        assert reported == END_TO_END
        assert all(result["metrics"][name]["value"] > 0 for name in END_TO_END)
    for key in ("python", "nproc", "workload_seed", "loadavg_start", "loadavg_end", "digest"):
        assert key in record


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_counts_repeat_across_runs(workload, trace):
    first = bench(workload, trace)
    second = bench(workload, trace, repeat=1)
    assert first[0]["digest"] == second[0]["digest"]
    assert exact_counts(first[1]) == exact_counts(second[1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_digest_is_independent_of_hash_seed(workload):
    assert bench(workload, 0, "0")[0]["digest"] == bench(workload, 0, "1")[0]["digest"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = invoke(WORKLOADS[0], 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
