#!/usr/bin/env python3
"""Build and run the end-to-end streaming benchmark.

usage (from the repository root):
    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures and builds e2ebench/CMakeLists.txt (the dcsn library plus the
driver) in Release mode on first use, under $CARGO_TARGET_DIR or
.bench_build, then runs the driver with the given arguments. Build output
goes to stderr; the driver's stdout is passed through, so its last line is
the JSON result. Traces and waterfall tables land in .bench_out/.

Exits non-zero without printing a result when the repository sources are
missing or the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The driver itself stops well inside the 180 s a run may take; this is the
# backstop against a hang.
RUN_TIMEOUT_S = 175
BUILD_JOBS = "4"


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "e2ebench")


def build():
    """Builds the driver; returns its path or None on failure."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        print("e2ebench: repository sources not found next to e2ebench/", file=sys.stderr)
        return None
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "e2ebench", "-j", BUILD_JOBS])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("e2ebench: build step failed: " + " ".join(step), file=sys.stderr)
            return None
    return os.path.join(out, "e2ebench")


def main(argv):
    binary = build()
    if binary is None:
        return 2
    try:
        proc = subprocess.run([binary, "--out-dir", ".bench_out"] + argv,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("e2ebench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
