#!/usr/bin/env python3
"""Self-test of the benchmark: BENCHMARK.json follows the benchmark
file rules, and a short smoke run of every workload, timed and traced,
prints exactly the names and units BENCHMARK.json lists, with no failed
cell and the traced-run files written.

    python3 perfbench/selftest.py        # from the repository root

Exits non-zero on the first problem.
"""
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SMOKE_SEED = 7


def check(cond, message):
    if not cond:
        print("selftest: FAIL: " + message, file=sys.stderr)
        sys.exit(1)


def check_spec(spec):
    check(sorted(spec) == ["command", "end_to_end", "paths", "per_layer",
                           "run_seconds", "workloads"], "BENCHMARK.json keys")
    names = []
    for w in spec["workloads"]:
        check(sorted(w) == ["name", "why"], "workload keys %s" % w)
        check("\n" not in w["why"] and len(w["why"]) <= 200, "why of %s" % w["name"])
        names.append(w["name"])
    for m in spec["end_to_end"] + spec["per_layer"]:
        want = ["better", "bound", "name", "unit"] if m in spec["end_to_end"] else \
            ["better", "name", "unit"]
        check(sorted(m) == want, "metric keys %s" % m)
        check(m["better"] in ("higher", "lower"), "better of %s" % m["name"])
        check(UNIT.match(m["unit"]) is not None, "unit of %s" % m["name"])
        names.append(m["name"])
    for n in names:
        check(NAME.match(n) is not None, "name %r" % n)
    check(len(names) == len(set(names)), "names are not unique")
    for m in spec["end_to_end"]:
        check(0 < m["bound"] <= 0.25, "bound of %s" % m["name"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    check(setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower",
          "setup_s must be an end-to-end metric in s, lower is better")
    check(setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
          "setup_s must have the largest bound")
    check(1 <= spec["run_seconds"] <= 60, "run_seconds")


def smoke(spec, workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(SMOKE_SEED), "--seconds", "1", "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    check(done.returncode == 0, "%s exited with %d" % (" ".join(cmd[1:]), done.returncode))
    result = json.loads(done.stdout.strip().split("\n")[-1])
    section = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in section}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    check(got == want, "%s trace=%d names/units differ from BENCHMARK.json" % (workload, trace))
    check(result["correct"] is True, "%s trace=%d not correct" % (workload, trace))
    check(result["failed"] == 0 and result["attempted"] > 0,
          "%s trace=%d: %d of %d cells failed" % (workload, trace, result["failed"],
                                                  result["attempted"]))
    if trace == 0:
        check(result["metrics"]["ok_cells_pct"]["value"] == 100.0,
              "%s: failed_cells_pct is not 0" % workload)
    else:
        stem = os.path.join(ROOT, ".bench_build", "perfbench-out",
                            "%s-seed%d" % (workload, SMOKE_SEED))
        with open(stem + ".trace.json") as f:
            events = json.load(f)["traceEvents"]
        check(any(e["ph"] == "X" for e in events), "no spans in %s.trace.json" % stem)
        check(os.path.getsize(stem + ".layers.txt") > 0, "empty %s.layers.txt" % stem)
    print("selftest: %-13s trace=%d ok (%d cells)" % (workload, trace, result["attempted"]))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check_spec(spec)
    for w in spec["workloads"]:
        for trace in (0, 1):
            smoke(spec, w["name"], trace)
    print("selftest: all ok")


if __name__ == "__main__":
    main()
