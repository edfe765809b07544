"""Smoke pass over the end-to-end benchmark: every workload, untraced and
traced, at the ``--smoke`` sizes (phases of at most a second) with every
correctness check on.

    PYTHONPATH=src python -m pytest -q -m smoke benchmarks/e2e

The first run in a checkout pre-trains the backbone into ``.bench_build/``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "e2e" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=900)


@pytest.mark.smoke
@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_smoke(workload, trace):
    done = _run(ROOT, "--workload", workload, "--seed", "1", "--smoke",
                "--trace", trace)
    assert done.returncode == 0, done.stderr + done.stdout
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    kind = "per_layer" if trace == "1" else "end_to_end"
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == expected
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.smoke
def test_refuses_without_source_tree(tmp_path):
    """Given only BENCHMARK.json and the benchmark's own files, the
    command exits non-zero without printing a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", SPEC["workloads"][0]["name"],
                "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout.strip() == ""
