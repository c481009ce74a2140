#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload bsp --seed 1 --seconds 30 --trace 0

Workloads: bsp, migratory, bulklock.  --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer ones.  --quick shrinks every input (used by
perfbench/tests/selfcheck.py).

The benchmark is built from the checkout's sources with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).  Build output
goes to stderr; the last line of stdout is the result as one JSON object.
Exits non-zero, without a result, when the build, the run or its output
fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def run_step(cmd, timeout):
    """Runs a build step, sending its output to stderr; fails on error."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    except OSError as e:
        fail(f"cannot run {cmd[0]}: {e}")
    sys.stderr.write(proc.stdout)
    if proc.returncode != 0:
        fail(f"failed ({proc.returncode}): {' '.join(cmd)}")


def build(out):
    if not (ROOT / "src" / "tmk" / "runtime.h").is_file():
        fail(f"no sources under {ROOT / 'src'}; run from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (out / "CMakeCache.txt").is_file():
        run_step(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                  "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    run_step(["cmake", "--build", str(out), "-j", jobs], BUILD_TIMEOUT_S)
    binary = out / "perfbench"
    if not binary.is_file():
        fail(f"build produced no {binary}")
    return binary


def parse_result(line):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return None
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["bsp", "migratory", "bulklock"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    out = build_dir()
    binary = build(out)

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.quick:
        cmd.append("--quick")

    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    result = parse_result(lines[-1]) if lines else None
    if proc.returncode != 0 or result is None:
        sys.stderr.write(proc.stdout)
        fail(f"run failed (exit {proc.returncode}) or printed no result")
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
