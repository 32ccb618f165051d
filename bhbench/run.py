#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 bhbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Builds the library, the shard_server
binary and the benchmark binary (CMake, Release) under $CARGO_TARGET_DIR
(default .bench_build) on first use, then runs one workload.  The
benchmark binary prints progress lines and, as its last line, one JSON
object with correct / attempted / failed / metrics; its exit code is
passed through.  Build output goes to stderr.

Extra arguments (--size tiny, --corrupt-reference) are passed to the
binary; selftest.py uses them.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("bh_dense", "archive_mixed", "live_paced", "fabric_feed")


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build(build_dir):
    """Configures (once) and builds; returns the benchmark binary path."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=300)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs], check=True,
                   stdout=sys.stderr, timeout=840)
    return os.path.join(build_dir, "bhbench")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, extra = parser.parse_known_args()

    root = build_root()
    try:
        binary = build(os.path.join(root, "bhbench"))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        print(f"bhbench: build failed: {e}", file=sys.stderr)
        return 2
    work_dir = os.path.join(root, "work", args.workload)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir] + extra
    try:
        proc = subprocess.run(cmd, timeout=170)
    except subprocess.TimeoutExpired:
        print("bhbench: run timed out", file=sys.stderr)
        return 3
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
