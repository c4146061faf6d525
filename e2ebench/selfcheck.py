#!/usr/bin/env python3
"""Self-check of the end-to-end streaming benchmark.

usage (from the repository root):
    python3 e2ebench/selfcheck.py

Runs every workload of BENCHMARK.json in the driver's --smoke mode (small
textures and spot counts, a few frames; seconds per run) and asserts:

  * every metric BENCHMARK.json names is emitted with its unit: the
    end-to-end list with --trace 0, the per-layer list with --trace 1;
  * every run is correct and fully verified;
  * the count metrics repeat exactly across two runs with the same seed
    and change with the seed;
  * the latency limit the driver applies is the one the workload's `why`
    states;
  * a deliberately wrong reference hash drives verified_share below 1;
  * run.py, given only BENCHMARK.json and e2ebench/, fails without
    printing a result.

Exits non-zero on the first failed assertion.
"""
import json
import os
import re
import shutil
import subprocess
import sys

import run

ROOT = run.ROOT
OUT = os.path.join(ROOT, ".bench_out")
COUNTS_TRACE0 = ["wire_up_kib_per_frame", "wire_down_kib_per_frame"]
COUNTS_TRACE1 = [
    "render.fragments_per_frame",
    "geometry.vertices_per_frame",
    "engine.spot_assignments_per_frame",
    "delta.dirty_tile_share",
    "store.hit_share",
]


def check(cond, message):
    if not cond:
        print("SELFCHECK FAILED: " + message)
        sys.exit(1)


def drive(binary, workload, seed, trace, *extra):
    args = [binary, "--workload", workload, "--seed", str(seed), "--seconds", "1",
            "--trace", str(trace), "--out-dir", OUT, "--smoke"] + list(extra)
    proc = subprocess.run(args, capture_output=True, text=True, timeout=170)
    check(proc.returncode == 0, "%s exited %d: %s" % (args, proc.returncode, proc.stderr))
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), proc.stdout


def expect_metrics(result, spec, label):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in spec}
    check(got == want, "%s: metrics %s, expected %s" % (label, got, want))


def counts(result, names):
    return tuple(result["metrics"][n]["value"] for n in names)


def check_bare_directory():
    bare = os.path.join(OUT, "selfcheck-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(run.HERE, os.path.join(bare, "e2ebench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    proc = subprocess.run(
        ["python3", "e2ebench/run.py", "--workload", "bent_full", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, env=env, capture_output=True, text=True, timeout=170)
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0, "run.py succeeded without the repository sources")
    check('"metrics"' not in proc.stdout, "run.py printed a result without sources")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    binary = run.build()
    check(binary is not None, "build failed")
    os.makedirs(OUT, exist_ok=True)

    for workload in bench["workloads"]:
        name = workload["name"]
        a0, text = drive(binary, name, 1, 0)
        b0, _ = drive(binary, name, 1, 0)
        c0, _ = drive(binary, name, 2, 0)
        a1, _ = drive(binary, name, 1, 1)
        b1, _ = drive(binary, name, 1, 1)
        c1, _ = drive(binary, name, 2, 1)
        for label, result in (("trace0", a0), ("trace0", b0), ("trace0", c0)):
            expect_metrics(result, bench["end_to_end"], name + " " + label)
        for label, result in (("trace1", a1), ("trace1", b1), ("trace1", c1)):
            expect_metrics(result, bench["per_layer"], name + " " + label)
        for result in (a0, b0, c0, a1, b1, c1):
            check(result["correct"] and result["failed"] == 0, name + ": incorrect run")
            check(result["attempted"] >= 1, name + ": nothing attempted")
        check(a0["metrics"]["verified_share"]["value"] == 1.0, name + ": unverified frames")

        same0, same1 = counts(a0, COUNTS_TRACE0), counts(a1, COUNTS_TRACE1)
        check(same0 == counts(b0, COUNTS_TRACE0), name + ": trace0 counts differ, same seed")
        check(same1 == counts(b1, COUNTS_TRACE1), name + ": trace1 counts differ, same seed")
        check((same0, same1) != (counts(c0, COUNTS_TRACE0), counts(c1, COUNTS_TRACE1)),
              name + ": counts do not change with the seed")

        limit = re.search(r"SLO (\d+) ms", workload["why"])
        check(limit is not None, name + ": why states no SLO")
        check("SLO %s ms" % limit.group(1) in text, name + ": driver SLO differs from why")

        bad, _ = drive(binary, name, 1, 0, "--corrupt-reference")
        check(bad["metrics"]["verified_share"]["value"] < 1.0,
              name + ": a wrong reference hash went unnoticed")
        check(not bad["correct"], name + ": a wrong reference hash was reported correct")
        print("ok  %s" % name)

    check_bare_directory()
    print("ok  bare directory fails without a result")
    print("selfcheck passed")


if __name__ == "__main__":
    main()
