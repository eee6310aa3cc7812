#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload <advised_calls|fleet_cells|roam_churn> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The first call configures and builds the program's libraries (from src/)
and the benchmark program into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); later calls only bring that build up to date.
Build output goes to stderr. The benchmark's standard output passes through
unchanged: its last line is the JSON result, and its exit status is this
script's exit status.
"""
import os
import shutil
import subprocess
import sys


def build(here, build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", here, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        # Keep stdout clean for the result line: build chatter goes to stderr.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        print("perfbench: no program sources at " + os.path.join(root, "src"),
              file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build")
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    if not build(here, build_dir):
        return 2
    exe = os.path.join(build_dir, "perfbench")
    sys.stdout.flush()
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
