"""End-to-end benchmark of the PromptEM reproduction.

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload score-open --seed 1 \\
        --seconds 20 --trace 0 [--smoke] [--out runs.jsonl]

Without ``--workload`` every workload runs in turn. Each run is a fresh
interpreter with one BLAS/OpenMP thread, ``src`` on the import path and
the model cache in ``.bench_build/``; the first run in a checkout
pre-trains the backbone there (about a minute). For each workload the
child prints ``workload metric value unit n`` rows, then the result JSON
as its last line. ``--trace 1`` reports the per-layer metrics instead of
the end-to-end ones. The exit code is non-zero when a correctness check
fails or the run cannot complete.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD_DIR = ROOT / ".bench_build"
CACHE_DIR = BUILD_DIR / "repro-cache"
#: a run must finish well inside the three minutes a caller allows
RUN_TIMEOUT_S = 170.0
BUILD_TIMEOUT_S = 840.0


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    # unpinned BLAS threads make the two-replica pool contend for cores
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["REPRO_CACHE_DIR"] = str(CACHE_DIR)
    return env


def _group_alive(pgid: int) -> bool:
    """Does any non-zombie process remain in process group ``pgid``?"""
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[0] != "Z" and int(fields[2]) == pgid:
            return True
    return False


def _reap_group(pgid: int) -> None:
    """Wait for helpers the child started (pool replicas, the shared-
    memory resource tracker) to end; kill them if they linger."""
    deadline = time.monotonic() + 10.0
    while _group_alive(pgid):
        if time.monotonic() > deadline:
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                return
            deadline = time.monotonic() + 10.0
        time.sleep(0.05)


def run_child(args, timeout: float) -> subprocess.CompletedProcess:
    """Run ``workloads.py`` in its own session, so every process it starts
    can be waited for."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "workloads.py"), *args,
         "--build-dir", str(BUILD_DIR)],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        stdout, _ = proc.communicate()
        print(f"e2e: {' '.join(args)} exceeded {timeout:.0f} s",
              file=sys.stderr)
        proc.returncode = proc.returncode or 1
    finally:
        _reap_group(proc.pid)
    return subprocess.CompletedProcess(proc.args, proc.returncode, stdout)


def ensure_built() -> None:
    if (CACHE_DIR / "minilm-base.npz").exists():
        return
    BUILD_DIR.mkdir(exist_ok=True)
    done = run_child(["--build"], BUILD_TIMEOUT_S)
    if done.returncode != 0:
        sys.exit("e2e: building the model cache failed")


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists() or not (ROOT / "src" / "repro").is_dir():
        print("e2e: run from a repository checkout (BENCHMARK.json and "
              "src/repro are required)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark (see benchmarks/e2e/README.md)")
    parser.add_argument("--workload", choices=names,
                        help="one workload (default: all, in turn)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="measured seconds per run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, phases <= 1 s, every check on")
    parser.add_argument("--out", type=Path,
                        help="append one JSON record per run to this file")
    args = parser.parse_args(argv)

    ensure_built()
    status = 0
    for workload in [args.workload] if args.workload else names:
        child_args = ["--workload", workload, "--seed", str(args.seed),
                      "--seconds", str(args.seconds),
                      "--trace", str(args.trace)]
        if args.smoke:
            child_args.append("--smoke")
        done = run_child(child_args, RUN_TIMEOUT_S)
        lines = done.stdout.rstrip("\n").splitlines()
        if done.returncode != 0 or not lines:
            sys.stdout.write(done.stdout)
            print(f"e2e: {workload} failed (exit {done.returncode})",
                  file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        sys.stdout.write(done.stdout)
        sys.stdout.flush()
        if args.out is not None:
            record = {"workload": workload, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace,
                      "smoke": args.smoke, "result": result}
            for line in lines:
                if line.startswith("# env "):
                    record["env"] = line[len("# env "):]
                elif line.startswith("# windows "):
                    record["windows"] = json.loads(line[len("# windows "):])
            with open(args.out, "a") as handle:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        if not result["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
