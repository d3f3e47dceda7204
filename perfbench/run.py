#!/usr/bin/env python3
"""Build and run the cheri-emu benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload emu --seed 1 --seconds 25 --trace 0

Workloads: emu, fleet, oracle, heap-sweep (see perfbench/README.md).
The emulator libraries and the benchmark are built from source with
CMake into $CARGO_TARGET_DIR (default .bench_build); build output goes
to standard error, so the last line of standard output is always the
benchmark's result object. --trace 1 writes the recorded spans to
.bench_build/traces/.

    python3 perfbench/run.py --fleet-crosscheck [N]

compares the benchmark's fleet totals for guests [0, N) (default 1000)
with the fleet section of `cheri-serve --guests N --jobs 4 --json -`.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                         "perfbench")
RUN_TIMEOUT_S = 170
FLEET_TOTALS = ("completed", "cow_pages", "cycles", "instructions", "salt_xor")


def build():
    """Configure (once) and build; returns False on any failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--parallel", "4"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=880)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"perfbench: {' '.join(cmd)}: {err}", file=sys.stderr)
            return False
        if done.returncode != 0:
            return False
    return True


def run(cmd):
    """Run a built binary to completion; returns (exit code, stdout)."""
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {cmd[0]} timed out", file=sys.stderr)
        return 1, ""
    return done.returncode, done.stdout


def fleet_crosscheck(guests):
    code, ours = run([os.path.join(BUILD_DIR, "cheri-perfbench"),
                      "--fleet-totals", str(guests)])
    if code != 0:
        return code
    code, tool = run([os.path.join(BUILD_DIR, "cheri-serve"),
                      "--guests", str(guests), "--jobs", "4", "--json", "-",
                      "--quiet"])
    if code != 0:
        return code
    ours = json.loads(ours)
    tool = json.loads(tool)["fleet"]
    ok = True
    for key in FLEET_TOTALS:
        same = ours[key] == tool[key]
        ok = ok and same
        print(f"{key:14} perfbench {ours[key]:>22} cheri-serve {tool[key]:>22}"
              f" {'ok' if same else 'MISMATCH'}")
    print("fleet cross-check", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fleet-crosscheck", type=int, nargs="?",
                        const=1000, metavar="N")
    args = parser.parse_args()
    if args.fleet_crosscheck is None and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.fleet_crosscheck is not None:
        return fleet_crosscheck(args.fleet_crosscheck)

    cmd = [os.path.join(BUILD_DIR, "cheri-perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(os.path.dirname(BUILD_DIR), "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(trace_dir, f"{args.workload}-{args.seed}.tsv")]
    code, out = run(cmd)
    if code != 0:
        return code
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
