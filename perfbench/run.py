#!/usr/bin/env python3
"""Build and run the scm end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Builds perfbench/ (a CMake package that compiles the simulator from ../src)
in Release mode under $CARGO_TARGET_DIR (default .bench_build) of the
checkout, then runs the benchmark binary with the given arguments. Build
output goes to stderr, so the last line of stdout is the benchmark's JSON
result. Exits non-zero without a result when the build fails.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_quiet(cmd):
    """Runs `cmd` with its output sent to stderr; returns its exit code."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode


def build(target):
    out = build_dir()
    generator = []
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(out, "CMakeCache.txt")):
        generator = ["-G", "Ninja"]
    if run_quiet(["cmake", "-S", HERE, "-B", out,
                  "-DCMAKE_BUILD_TYPE=Release"] + generator) != 0:
        return None
    jobs = str(min(4, os.cpu_count() or 1))
    if run_quiet(["cmake", "--build", out, "--target", target,
                  "-j", jobs]) != 0:
        return None
    return os.path.join(out, target)


def main(argv):
    target = "perfbench_selftest" if argv == ["--self-test"] else "perfbench"
    binary = build(target)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = [] if target == "perfbench_selftest" else argv
    return subprocess.run([binary] + args).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
