#!/usr/bin/env python3
"""The Armus benchmark: builds perfbench/ from the checkout and runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --self-test

NAME is one of local_avoid, local_detect, dist_detect, kv_fleet. The first
call configures and builds into .bench_build/perfbench at the checkout root
(Ninja when present); later calls only let the build tool confirm it is up
to date. An untraced run is split into ROUNDS processes of equal length
whose end-to-end metrics are medians over the rounds; a traced run is one process. Each
process's metrics are printed one per line, then one JSON object as the
last line of stdout: `correct`, `attempted`, `failed` and `metrics` — the
end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer metrics
with --trace 1. Exits non-zero when a correctness check
failed, the build failed, or the Armus sources are missing. See README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ["local_avoid", "local_detect", "dist_detect", "kv_fleet"]
BUILD_TIMEOUT_S = 850
RUN_SLACK_S = 100  # set-up, drain and teardown beyond --seconds
# An untraced run is split into this many processes (rounds) of equal
# length, and each end-to-end metric is the median of the rounds. One
# process keeps the speed it happened to get: on a shared virtual machine
# the same set-up runs 1.5x slower in some processes than in others for
# their whole life, so a single process per run reads as a step change
# between runs.
ROUNDS = 4


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no Armus sources at %s (CMakeLists.txt and src/ are needed "
             "beside perfbench/)" % ROOT)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    commands = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        commands.append(["cmake", "-S", HERE, "-B", BUILD] + generator)
    commands.append(["cmake", "--build", BUILD, "-j", "4"])
    for command in commands:
        try:
            # Build chatter goes to stderr: stdout carries only results.
            result = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                                    timeout=BUILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            fail("build timed out: " + " ".join(command))
        if result.returncode != 0:
            fail("build failed: " + " ".join(command))


def benchmark_spec():
    """BENCHMARK.json: the run length and the metrics it promises."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def run_round(workload, seed, seconds, trace):
    """Runs the program once; returns (its JSON result or None, exit code)."""
    command = [os.path.join(BUILD, "perfbench"), "--workload", workload,
               "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace)]
    if trace:
        command += ["--spans-out",
                    os.path.join(BUILD, "spans-%s-seed%d.tsv" % (workload, seed))]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=seconds + RUN_SLACK_S, check=False)
    except subprocess.TimeoutExpired:
        print("perfbench: %s timed out" % workload, file=sys.stderr)
        return None, -1
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        return json.loads(lines[-1]), proc.returncode
    except (IndexError, ValueError):
        print("perfbench: %s exited %d without a result" % (workload, proc.returncode),
              file=sys.stderr)
        return None, proc.returncode


def run_workload(workload, seed, seconds, trace, specs):
    """Runs one workload (a traced run in one process, an untraced one in
    ROUNDS); returns (result dict for the JSON line, ok)."""
    rounds = 1 if trace else ROUNDS
    raws = []
    ok = True
    for _ in range(rounds):
        raw, code = run_round(workload, seed, seconds / rounds, trace)
        if raw is None:
            return None, False
        ok = ok and code == 0 and raw["correct"]
        raws.append(raw)

    metrics = {}
    for spec in specs:
        name = spec["name"]
        values = []
        for raw in raws:
            got = raw["metrics"].get(name)
            if got is None and trace:
                # A layer this workload does not exercise reads 0.
                got = {"value": 0.0, "unit": spec["unit"]}
            if got is None:
                print("perfbench: %s reported no %s" % (workload, name), file=sys.stderr)
                ok = False
                break
            if got["unit"] != spec["unit"]:
                print("perfbench: %s unit %s, BENCHMARK.json says %s"
                      % (name, got["unit"], spec["unit"]), file=sys.stderr)
                ok = False
            values.append(got["value"])
        else:
            metrics[name] = {"value": statistics.median(values), "unit": spec["unit"]}
    if rounds > 1:
        for name, metric in metrics.items():
            print("  %-34s %14.6g %-6s (median of %d rounds)"
                  % (name, metric["value"], metric["unit"], rounds))
    result = {"correct": bool(ok),
              "attempted": sum(int(raw["attempted"]) for raw in raws),
              "failed": sum(int(raw["failed"]) for raw in raws), "metrics": metrics}
    return result, ok


def self_test():
    build()
    proc = subprocess.run([os.path.join(BUILD, "perfbench_selftest")], check=False)
    sys.exit(proc.returncode)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measured time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the helper tests")
    args = parser.parse_args()
    if args.self_test:
        self_test()
    if args.workload is None:
        parser.error("--workload is required")
    spec = benchmark_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    build()
    if args.workload != "all":
        result, ok = run_workload(args.workload, args.seed, args.seconds,
                                  args.trace, specs)
        if result is None:
            sys.exit(1)
        print(json.dumps(result))
        sys.exit(0 if ok else 1)

    # Every workload in turn; the summary line prefixes metric names with
    # the workload.
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        result, ok = run_workload(workload, args.seed, args.seconds,
                                  args.trace, specs)
        summary["correct"] = summary["correct"] and ok
        if result is None:
            continue
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            summary["metrics"][workload + "." + name] = metric
    print(json.dumps(summary))
    sys.exit(0 if summary["correct"] else 1)


if __name__ == "__main__":
    main()
