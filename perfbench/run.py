#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload mil --seed 1 --seconds 10 --trace 0

Builds perfbench/ (and the library it links, from ../src) with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then runs one
workload.  Build output goes to stderr; the benchmark's report goes to
stdout, whose last line is the JSON result.  Exits non-zero without a
result when the build or the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("mil", "mil_batch", "farm16", "pil_campaign")
RUN_TIMEOUT_S = 170


def build(here, build_dir):
    generated = any(os.path.exists(os.path.join(build_dir, name))
                    for name in ("Makefile", "build.ninja"))
    if not generated:
        configure = ["cmake", "-S", here, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    command = ["cmake", "--build", build_dir, "--target", "perfbench",
               "-j", jobs]
    return subprocess.run(command, stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(root, target_dir, "perfbench")
    if not build(here, build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    # Evidence artifacts and the span file of this invocation.
    work_dir = os.path.join(
        build_dir, "runs",
        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)

    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
