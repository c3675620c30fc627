#!/usr/bin/env python3
"""The repo benchmark: builds perfbench/ (which compiles the library under
src/) into .bench_build/, then runs one workload and passes its output
through. The last stdout line is the result JSON.

Run from the repository root:

    python3 perfbench/run.py --workload table1_cold|serve_cold|serve_warm|fleet_diurnal
                             --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Build output goes to stderr. The trained-model suite cache is filled under
mann_bench_cache/ on first use; spans of a traced run and scratch files go
under .bench_build/perfbench/.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench-build")


def build():
    """Configures once, then builds incrementally; returns the binary path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        subprocess.run(step, check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(BUILD_DIR, "mann_perfbench")


def main():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        print("perfbench: no library sources at src/ next to perfbench/",
              file=sys.stderr)
        return 2
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2
    args = [binary, *sys.argv[1:]]
    if "--self-test" not in args:
        args += ["--reference", os.path.join(HERE, "reference_digests.txt")]
    sys.stdout.flush()
    return subprocess.run(args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
