#!/usr/bin/env python3
"""Build and run the end-to-end Cluster benchmark.

Usage (from the repository root):

    python3 e2ebench/run.py --workload fabric_uniform --seed 1 \
        --seconds 30 --trace 0

Configures and builds e2ebench/ (which compiles the simulator from src/)
as a Release build under .bench_build/e2ebench, then runs the tg_e2e
benchmark program.  Its standard output is passed through; its last
line is the result object {"correct", "attempted", "failed", "metrics"}.
Its standard error (the simulator's warn() lines) goes to
.bench_build/e2ebench/run.log, so console speed never enters the timed
phase.  Exits non-zero when the build fails, when tg_e2e reports a
correctness violation, or when its output is malformed.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "e2ebench"
WORKLOADS = ("fabric_uniform", "stencil_coherent", "fabric_faulty")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure and build tg_e2e; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no simulator sources under {ROOT / 'src'}")
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    log_path = BUILD / "build.log"
    # One build at a time per checkout, even if runs overlap.
    with open(BUILD / ".lock", "w") as lock, open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [["cmake", "--build", str(BUILD), "--target", "tg_e2e",
                  "-j", jobs]]
        # A configured tree re-runs cmake itself when a CMakeLists changes.
        if not (BUILD / "CMakeCache.txt").is_file():
            steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(BUILD),
                             "-DCMAKE_BUILD_TYPE=Release"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              stdin=subprocess.DEVNULL).returncode != 0:
                log.flush()
                tail = log_path.read_text(errors="replace")[-4000:]
                fail(f"build failed: {' '.join(cmd)}\n{tail}")
    return BUILD / "tg_e2e"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--size", default="full", choices=("full", "tiny"),
                    help="tiny: the same shapes at a test size")
    ap.add_argument("--inject-violation", action="store_true",
                    help="corrupt a checked word (tests the checks)")
    args = ap.parse_args()

    exe = build()
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--size", args.size]
    if args.inject_violation:
        cmd.append("--inject-violation")
    log_path = BUILD / "run.log"
    with open(log_path, "w") as err:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=err,
                              stdin=subprocess.DEVNULL, text=True)
    out = proc.stdout
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode != 0:
        tail = log_path.read_text(errors="replace").splitlines()[-20:]
        print("\n".join(tail), file=sys.stderr)
        fail(f"tg_e2e exited with {proc.returncode}")
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail("tg_e2e printed no result line")
    if set(result) != RESULT_KEYS or result["correct"] is not True:
        fail("tg_e2e result is malformed or not correct")


if __name__ == "__main__":
    main()
