#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload solve-road --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds two Release trees of perfbench under
.bench_build/ (APGRE_TRACE off for end-to-end runs, on for traced runs),
runs the workload, and prints as its last stdout line one JSON object with
the keys correct, attempted, failed and metrics. Exit 0 only when the
build succeeded and every exactness check passed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
VARIANTS = {"notrace": "OFF", "traced": "ON"}
CHILD_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build():
    """Configure (once) and build both trees; returns False on failure."""
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(os.cpu_count() or 1)
    with open(os.path.join(BUILD, "build.log"), "a") as out:
        for name, trace in VARIANTS.items():
            tree = os.path.join(BUILD, name)
            steps = []
            if not os.path.exists(os.path.join(tree, "CMakeCache.txt")):
                steps.append(["cmake", "-S", HERE, "-B", tree,
                              "-DCMAKE_BUILD_TYPE=Release",
                              f"-DAPGRE_TRACE={trace}"])
            steps.append(["cmake", "--build", tree, "--target", "perfbench",
                          "-j", jobs])
            for step in steps:
                if subprocess.call(step, stdout=out, stderr=subprocess.STDOUT) != 0:
                    log(f"build step failed: {' '.join(step)} "
                        f"(see {os.path.join(BUILD, 'build.log')})")
                    return False
    return True


def revision():
    """Git revision of the checkout, or "unknown" outside a git checkout."""
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return rev.stdout.strip() if rev.returncode == 0 and rev.stdout.strip() else "unknown"


def run_child(variant, args, seconds, extra):
    """Run one perfbench binary; echo its output; return (code, result)."""
    cmd = [os.path.join(BUILD, variant, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", "1" if variant == "traced" else "0",
           "--revision", args.revision] + extra
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{variant} run exceeded {CHILD_TIMEOUT_S} s")
        return 1, None
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(lines[-1])
    if proc.returncode != 0 and proc.returncode != 1:
        result = None
    return proc.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs (the smoke check, not a measurement)")
    parser.add_argument("--perturb", action="store_true",
                        help="corrupt one checked score vector; the run must fail")
    args = parser.parse_args()
    extra = (["--smoke"] if args.smoke else []) + (["--perturb"] if args.perturb else [])

    if not build():
        return 1
    args.revision = revision()
    if args.trace == 0:
        code, result = run_child("notrace", args, args.seconds, extra)
        if result is None:
            return code or 1
        print(json.dumps(result, sort_keys=True))
        return 0 if code == 0 and result["correct"] else 1

    # Traced run: a short untraced pass gives the reference solve_p50_norm,
    # so the tracing overhead is traced over untraced on the same inputs.
    code_u, untraced = run_child("notrace", args, max(1.0, 0.3 * args.seconds), extra)
    traces = os.path.join(BUILD, "traces")
    os.makedirs(traces, exist_ok=True)
    trace_file = os.path.join(traces, f"{args.workload}-seed{args.seed}.json")
    code_t, traced = run_child("traced", args, args.seconds,
                               extra + ["--trace-out", trace_file])
    if untraced is None or traced is None:
        return 1
    metrics = traced["metrics"]
    overhead = (metrics["trace.solve_p50_norm"]["value"]
                / untraced["metrics"]["solve_p50_norm"]["value"] - 1.0)
    metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
    log(f"chrome trace written to {os.path.relpath(trace_file, ROOT)}")
    result = {
        "correct": bool(untraced["correct"] and traced["correct"]),
        "attempted": untraced["attempted"] + traced["attempted"],
        "failed": untraced["failed"] + traced["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0 if code_u == 0 and code_t == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
