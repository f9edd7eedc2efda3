#!/usr/bin/env python3
"""Builds the ffperf benchmark program from source, runs one workload and prints
its result as one JSON line.

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 38 --trace 0

Run it from the repository root. ffperf (perfbench/*.cpp) and the
repository's src/ libraries are built into .bench_build/perfbench with the
repository's own build settings; traced runs write their span file and
per-layer table to .bench_build/perfbench-out. The last stdout line is
{"correct", "attempted", "failed", "metrics"}, with the end-to-end metrics
of BENCHMARK.json for --trace 0 and its per-layer metrics for --trace 1.
"""
import argparse
import json
import math
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench-out")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_group(cmd, timeout, stdout):
    """Runs cmd in its own process group and waits for it; on timeout kills
    the whole group (make's children too) before raising."""
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def build():
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("no %s in %s: the simulator sources are missing" % (needed, ROOT))
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD_DIR, "--target", "ffperf", "-j", jobs],
    ]
    if os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps = steps[1:]
    for cmd in steps:
        try:
            code, _ = run_group(cmd, BUILD_TIMEOUT_S, sys.stderr)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step %s failed: %s" % (cmd[:2], e))
        if code != 0:
            fail("build step %s exited with %d" % (cmd[:2], code))
    return os.path.join(BUILD_DIR, "ffperf")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """Returns the parsed result line, or exits if it breaks the result format."""
    try:
        result = json.loads(line)
    except ValueError:
        fail("last ffperf line is not JSON: %r" % line[:200])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result keys %s" % sorted(result))
    want = expected_metrics(trace)
    got = result["metrics"]
    if sorted(got) != sorted(want):
        fail("metric names differ from BENCHMARK.json: missing %s, extra %s"
             % (sorted(set(want) - set(got)), sorted(set(got) - set(want))))
    for name, m in got.items():
        if m.get("unit") != want[name]:
            fail("metric %s has unit %r, BENCHMARK.json says %r" % (name, m.get("unit"), want[name]))
        if not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
            fail("metric %s has no finite value" % name)
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("attempted must be a positive whole number")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["paper-grid", "fleet-small", "crowd-faulted"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out-dir", OUT_DIR]
    try:
        code, out = run_group(cmd, RUN_TIMEOUT_S, subprocess.PIPE)
    except subprocess.TimeoutExpired:
        fail("ffperf did not finish within %d s" % RUN_TIMEOUT_S)
    if code != 0:
        fail("ffperf exited with %d" % code)
    lines = out.rstrip("\n").split("\n")
    check_result(lines[-1], args.trace == 1)
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
