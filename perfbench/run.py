#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload table1-kiss --seed 1 --seconds 20 --trace 0

Builds the library and the two benchmark binaries from source into
.bench_build/perfbench (CMake, Release), runs one workload, and prints the
binary's report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics listed in BENCHMARK.json.
--trace 1 runs the untraced binary and then the traced one on the same
seed, reports the per-layer metrics, and adds trace.overhead_pct: how
much slower the traced run's median job was.  Spans go to .bench_out/.

Exits non-zero without a result when the build fails (for instance when
the repository's sources are not there) and non-zero after the result
when a correctness check failed.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    tmp = os.path.join(BUILD, "tmp")  # keeps compiler temporaries inside
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j", jobs])
        for cmd in steps:
            r = subprocess.run(cmd, stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT, text=True, env=env)
            if r.returncode != 0:
                log(r.stdout[-4000:])
                log("build failed: " + " ".join(cmd))
                return False
    return True


def run_binary(name, args):
    cmd = [os.path.join(BUILD, name), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--out-dir", OUT]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(name + " timed out")
        return None, 1
    lines = r.stdout.strip().splitlines()
    if not lines:
        log(name + " printed nothing (exit %d)" % r.returncode)
        return None, r.returncode or 1
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(name + " did not end with a JSON line")
        return None, r.returncode or 1
    return result, r.returncode


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log("unknown workload " + args.workload)
        return 2
    if not build():
        return 1

    plain, code = run_binary("perfbench", args)
    if plain is None:
        return code
    result = plain
    if args.trace:
        result, traced_code = run_binary("perfbench_traced", args)
        if result is None:
            return traced_code
        code = code or traced_code
        base = plain["metrics"]["job_p50_ms"]["value"]
        traced = result["metrics"]["job_p50_ms"]["value"]
        result["metrics"]["trace.overhead_pct"] = {
            "value": 100.0 * (traced - base) / base, "unit": "%"}
        result["correct"] = result["correct"] and plain["correct"]
        wanted = spec["per_layer"]
    else:
        wanted = spec["end_to_end"]

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            if not args.trace:
                log("missing end-to-end metric " + m["name"])
                return 1
            # A layer this workload does not run.
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            log("metric %s: unit %s, BENCHMARK.json says %s"
                % (m["name"], got["unit"], m["unit"]))
            return 1
        metrics[m["name"]] = got
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return code


if __name__ == "__main__":
    sys.exit(main())
