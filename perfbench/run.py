#!/usr/bin/env python3
"""Builds the replay benchmark from source and runs one workload.

    python3 perfbench/run.py --workload fileserver --seed 42 --seconds 50 \
        --trace 0

Run from the root of a checkout. The harness (perfbench/harness.cc) is
compiled together with the ecostore libraries under src/ into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then run
once; its last stdout line is the JSON result. Build output goes to
build.log in that directory. Exits non-zero, without a result line, when
the sources are missing or the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fileserver", "fleet", "oltp-baselines")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail(f"build step failed: {' '.join(cmd)} (log: {log_path})")
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true",
                        help="shortened simulated durations (self-test)")
    parser.add_argument("--expect-fingerprint",
                        help="check every run against this fingerprint")
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    binary = build(build_dir)

    cmd = [binary, "--workload", args.workload,
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--fingerprints", os.path.join(HERE, "fingerprints.txt")]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    if args.short:
        cmd.append("--short")
    if args.expect_fingerprint:
        cmd += ["--expect-fingerprint", args.expect_fingerprint]
    if args.trace:
        cmd += ["--spans",
                os.path.join(build_dir, f"spans-{args.workload}.jsonl")]

    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"harness did not finish within {RUN_TIMEOUT_S} s")
    try:
        json.loads(out.rstrip("\n").rsplit("\n", 1)[-1])
        ok = proc.returncode == 0
    except json.JSONDecodeError:
        ok = False
    if not ok:
        sys.stderr.write(out)
        fail(f"harness exited with code {proc.returncode} and no result")
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
