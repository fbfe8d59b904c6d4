#!/usr/bin/env python3
"""Self-test of the benchmark's output oracle.

    python3 perfbench/selftest.py

Run from the repository root.  For each workload, one clean short run must
pass, and runs that flip one accept bit, one dual or one segment speed in
the first recorded output (`--corrupt`) must each be reported as a
failure: nonzero exit, `correct` false and `failed` > 0.  The script also
checks that the metric names each mode prints are exactly the ones
`BENCHMARK.json` declares.  Exits nonzero if any expectation fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
SEED = 7
CASES = [
    ("pd-poisson", ["accept", "dual", "speed"]),
    # PD rejects every overload job, so its schedule has no segment.
    ("pd-overload", ["accept", "dual"]),
    ("serve-paced", ["accept", "dual", "speed"]),
    ("serve-flood", ["accept", "dual", "speed"]),
]


def run(workload, trace, corrupt=None):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace)]
    if corrupt:
        cmd += ["--corrupt", corrupt]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result


def main() -> int:
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {0: [m["name"] for m in spec["end_to_end"]],
                1: [m["name"] for m in spec["per_layer"]]}
    problems = []
    for workload, corruptions in CASES:
        for trace in (0, 1):
            code, result = run(workload, trace)
            ok = code == 0 and result and result["correct"] and result["failed"] == 0
            names = sorted(result["metrics"]) if result else []
            if names != sorted(declared[trace]):
                problems.append(f"{workload} --trace {trace}: metric names differ from BENCHMARK.json")
            print(f"{workload:12s} clean  --trace {trace}: exit {code}, "
                  f"failed {result and result['failed']} -> {'ok' if ok else 'WRONG'}")
            if not ok:
                problems.append(f"{workload} --trace {trace}: clean run failed")
        for corrupt in corruptions:
            code, result = run(workload, 0, corrupt)
            caught = code != 0 and result is not None and not result["correct"] \
                and result["failed"] > 0
            print(f"{workload:12s} {corrupt:6s} --trace 0: exit {code}, "
                  f"failed {result and result['failed']} -> {'caught' if caught else 'MISSED'}")
            if not caught:
                problems.append(f"{workload}: corrupted {corrupt} was not reported")
    for p in problems:
        print("FAILED:", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
