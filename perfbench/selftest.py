#!/usr/bin/env python3
"""Self-test of the replay benchmark, on shortened runs.

    python3 perfbench/selftest.py

Run from the root of a checkout (it builds through perfbench/run.py). It
checks that
  1. every end-to-end and per-layer metric named in BENCHMARK.json is
     printed, with its unit, on every workload of the harness (including
     fleet, which BENCHMARK.json leaves out), and all checks pass;
  2. a deliberately wrong expected fingerprint is reported as a failed
     operation;
  3. oltp-baselines bypasses the monitor sink and the core/ planner:
     monitor.sink_calls == 0 and no core.* time or calls.
Exits 0 when all hold, 1 otherwise.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

failures = []


def check(ok, message):
    print(("ok   " if ok else "FAIL ") + message)
    if not ok:
        failures.append(message)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seconds", "1", "--trace", str(trace), "--short",
           *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        check(False, f"{' '.join(cmd[1:])} exited {proc.returncode}")
        return None
    return json.loads(proc.stdout.rstrip("\n").rsplit("\n", 1)[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    results = {}
    for workload in ("fileserver", "fleet", "oltp-baselines"):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run(workload, trace)
            if result is None:
                continue
            results[(workload, trace)] = result
            label = f"{workload} --trace {trace}"
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1,
                  f"{label}: all {result['attempted']} runs pass")
            printed = result["metrics"]
            for metric in spec[key]:
                got = printed.get(metric["name"])
                check(got is not None and got["unit"] == metric["unit"],
                      f"{label}: prints {metric['name']} [{metric['unit']}]")

    wrong = run("fileserver", 0, "--expect-fingerprint", "0123456789abcdef")
    if wrong is not None:
        check(not wrong["correct"] and wrong["failed"] >= 1,
              f"wrong expected fingerprint: {wrong['failed']} of "
              f"{wrong['attempted']} runs reported failed")

    oltp = results.get(("oltp-baselines", 1))
    if oltp is not None:
        m = {k: v["value"] for k, v in oltp["metrics"].items()}
        check(m["monitor.sink_calls"] == 0,
              "oltp-baselines: monitor.sink_calls == 0")
        core = {k: v for k, v in m.items() if k.startswith("core.")}
        check(all(v == 0 for v in core.values()),
              f"oltp-baselines: all {len(core)} core.* metrics are 0")
        check(m["policies.physical_io_hook_calls"] > 0,
              "oltp-baselines: the DDR physical-I/O hook runs")
    for workload in ("fileserver", "fleet"):
        traced = results.get((workload, 1))
        if traced is not None:
            m = {k: v["value"] for k, v in traced["metrics"].items()}
            check(m["monitor.sink_calls"] == m["workload.records"] > 0,
                  f"{workload}: the sink sees every logical I/O")
            check(m["core.period_end_calls"] > 0,
                  f"{workload}: the core/ period-end pipeline runs")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
