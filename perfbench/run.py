#!/usr/bin/env python3
"""The repository benchmark (see perfbench/README.md).

Run from the repository root:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --self-test

The first call configures and builds the runtime, wdl_peerd and the
benchmark binary into .bench_build/ (later calls rebuild incrementally).
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Untraced runs report the end-to-end metrics, traced runs the per-layer
ones. Build output and diagnostics go to standard error.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH_DIR)
BUILD = os.path.join(REPO, ".bench_build")
WORK = os.path.join(BUILD, "work")
BENCH_BIN = os.path.join(BUILD, "wdl_repo_bench")
PEERD = os.path.join(BUILD, "wdl", "tools", "wdl_peerd")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", BUILD, "--parallel", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def remove_stale_run_dirs():
    """Deletes run-<pid>-<n> directories whose benchmark process is gone
    (killed before its teardown could remove them)."""
    for entry in os.listdir(WORK):
        parts = entry.split("-")
        if len(parts) == 3 and parts[0] == "run" and parts[1].isdigit():
            if not os.path.exists(f"/proc/{parts[1]}"):
                shutil.rmtree(os.path.join(WORK, entry), ignore_errors=True)


def run_benchmark(workload, seed, seconds, trace, extra=()):
    """Runs one workload; returns the parsed result line or None."""
    os.makedirs(WORK, exist_ok=True)
    remove_stale_run_dirs()
    cmd = [BENCH_BIN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--peerd", PEERD, "--work-dir", WORK, *extra]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run killed wdl_repo_bench; its daemons die with it
        # (PR_SET_PDEATHSIG).
        log(f"{workload}: no result within {RUN_TIMEOUT_S}s")
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"{workload}: wdl_repo_bench exited with {proc.returncode}")
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"{workload}: unparsable result line: {lines[-1]!r}")
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log(f"{workload}: unexpected result keys {sorted(result)}")
        return None
    return result


def peerd_processes():
    """Pids of live processes running this checkout's wdl_peerd."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as f:
                argv0 = f.read().split(b"\0")[0].decode(errors="replace")
        except OSError:
            continue
        if os.path.abspath(argv0) == PEERD:
            pids.append(int(entry))
    return pids


def self_test():
    """Short runs of every workload: names and units, correctness
    catching a corrupted expectation, and daemon hygiene."""
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            result = run_benchmark(workload, 7, 1, trace, ["--smoke"])
            if result is None:
                problems.append(f"{workload} trace={trace}: no result")
                continue
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{workload} trace={trace}: metrics "
                                f"{sorted(got.items())} differ from "
                                "BENCHMARK.json")
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{workload} trace={trace}: not correct")
        corrupted = run_benchmark(workload, 7, 1, 0,
                                  ["--smoke", "--corrupt-expectation"])
        if corrupted is None or corrupted["correct"]:
            problems.append(f"{workload}: a corrupted expectation passed")
    leftovers = peerd_processes()
    if leftovers:
        problems.append(f"wdl_peerd processes left behind: {leftovers}")
    stale = [d for d in os.listdir(WORK) if d.startswith("run-")]
    if stale:
        problems.append(f"run directories left behind: {stale}")
    for p in problems:
        log("self-test: " + p)
    log("self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    started = time.monotonic()
    if not build():
        log("build failed")
        return 2
    log(f"build ready in {time.monotonic() - started:.1f}s")
    if args.self_test:
        return self_test()
    result = run_benchmark(args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
