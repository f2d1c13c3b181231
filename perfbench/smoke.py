#!/usr/bin/env python3
"""Smoke check of the benchmark itself, at a tiny size.

    python3 perfbench/smoke.py

Run from the repository root. For every workload in BENCHMARK.json it runs
perfbench/run.py with --smoke, untraced and traced, and checks that the
last line has exactly the result keys, that every named metric is emitted
with its unit and a finite value, and that the run is correct. Then it runs
each workload with --perturb, which corrupts one checked score vector, and
checks that the exactness gate trips: the run reports correct = false and
exits non-zero. Exit 0 when every check passes.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 and "--perturb" not in extra:
        sys.stderr.write(proc.stderr)
    return proc.returncode, (json.loads(lines[-1]) if lines else None)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, names in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            code, result = run(workload, trace)
            where = f"{workload} --trace {trace}"
            if code != 0 or result is None:
                problems.append(f"{where}: exit {code}")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
                continue
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{where}: not correct ({result['failed']} failed)")
            wanted = {m["name"]: m["unit"] for m in names}
            if set(result["metrics"]) != set(wanted):
                problems.append(f"{where}: metrics differ: missing "
                                f"{sorted(set(wanted) - set(result['metrics']))}, extra "
                                f"{sorted(set(result['metrics']) - set(wanted))}")
            for name, unit in wanted.items():
                got = result["metrics"].get(name)
                if got is None:
                    continue
                if got.get("unit") != unit:
                    problems.append(f"{where}: {name} unit {got.get('unit')} != {unit}")
                if not isinstance(got.get("value"), (int, float)) or not math.isfinite(got["value"]):
                    problems.append(f"{where}: {name} value {got.get('value')!r}")
        code, result = run(workload, 0, ("--perturb",))
        if code == 0 or result is None or result["correct"] or result["failed"] < 1:
            problems.append(f"{workload} --perturb: the exactness gate did not trip "
                            f"(exit {code}, result {result and result['correct']})")
    for p in problems:
        print(f"smoke: FAIL {p}")
    print(f"smoke: {'ok' if not problems else f'{len(problems)} problem(s)'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
