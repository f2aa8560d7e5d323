#!/usr/bin/env python3
"""End-to-end, per-layer benchmark of the cinderella IPET analyzer.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Builds the benchmark binary (perfbench/CMakeLists.txt, against ../src) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), with the build
type the repository's top-level CMakeLists.txt defaults to, then runs one
workload.  All build output goes to stderr; the binary's last stdout line is
the result JSON.  The exit code is the binary's: 0 when every answer was
correct, 1 when any was wrong, 2 on a usage, build or set-up error.

--self-test checks the benchmark itself: every workload prints every metric
of BENCHMARK.json with its unit, and a planted wrong pinned bound, a planted
error response and a planted pause outside every traced layer each count as
failures and make the run exit nonzero.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("suite-ccg", "suite-light", "serve-mixed")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def default_build_type():
    """The build type the top-level CMakeLists.txt applies when none is set."""
    with open(os.path.join(ROOT, "CMakeLists.txt"), encoding="utf-8") as f:
        text = f.read()
    match = re.search(
        r"if\s*\(\s*NOT\s+CMAKE_BUILD_TYPE\s*\)\s*set\s*\(\s*CMAKE_BUILD_TYPE\s+(\w+)",
        text)
    return match.group(1) if match else ""


def build():
    """Configures and builds the benchmark binary; returns its path, or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")) or \
            not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        log(f"no analyzer sources next to {HERE}")
        return None
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target_dir, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Keep the compiler's temporary files inside the checkout too.
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir,
         f"-DCMAKE_BUILD_TYPE={default_build_type()}"],
        ["cmake", "--build", build_dir, "--target", "perfbench",
         "--parallel", jobs],
    ]
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  env=env, check=False)
        except OSError as error:
            log(f"cannot run {step[0]}: {error}")
            return None
        if done.returncode != 0:
            log(f"build step failed: {' '.join(step)}")
            return None
    return os.path.join(build_dir, "perfbench")


def run_bench(binary, workload, seed, seconds, trace, extra=(), capture=False):
    """Runs the benchmark binary; returns (exit code, stdout or None)."""
    out_dir = os.path.join(os.path.dirname(binary), "out")
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--pinned", os.path.join(HERE, "pinned.json"),
               "--out-dir", out_dir, *extra]
    with subprocess.Popen(command, stdout=subprocess.PIPE if capture else None,
                          text=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            log(f"{workload}: benchmark exceeded {RUN_TIMEOUT_S} s")
            return 2, None
    if capture and stdout:
        sys.stderr.write(stdout)
    return proc.returncode, stdout


def last_json(stdout):
    lines = (stdout or "").strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def self_test(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []

    def check(label, ok):
        print(f"{'PASS' if ok else 'FAIL'} {label}", flush=True)
        if not ok:
            failures.append(label)

    for workload in WORKLOADS:
        for trace in (0, 1):
            code, stdout = run_bench(binary, workload, 1, 2, trace, capture=True)
            result = last_json(stdout)
            metrics = (result or {}).get("metrics", {})
            units = {name: m.get("unit") for name, m in metrics.items()}
            check(f"{workload} trace={trace}: exits 0 and is correct",
                  code == 0 and result is not None and result["correct"])
            check(f"{workload} trace={trace}: prints every metric with its unit",
                  units == expected[trace])
    plants = [("suite-light", "--plant-wrong-pin", 0),
              ("serve-mixed", "--plant-error-response", 0),
              ("suite-light", "--plant-trace-gap", 1)]
    for workload, plant, trace in plants:
        code, stdout = run_bench(binary, workload, 1, 2, trace, extra=(plant,),
                                  capture=True)
        result = last_json(stdout)
        metrics = (result or {}).get("metrics", {})
        # The share the plant lowers: answers right, or traced time covered.
        name, floor = (("ok_share", 1.0) if trace == 0 else
                       ("trace.accounted_share", 0.9))
        caught = metrics.get(name, {}).get("value", floor) < floor
        check(f"{workload} {plant}: counted as failed and exits nonzero",
              code != 0 and result is not None and not result["correct"]
              and result["failed"] >= 1 and caught)
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and None in (args.workload, args.seed, args.seconds,
                                       args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    binary = build()
    if binary is None:
        return 2
    if args.self_test:
        return self_test(binary)
    code, _ = run_bench(binary, args.workload, args.seed, args.seconds,
                         args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
