#!/usr/bin/env python3
"""End-to-end benchmark of the GSN container.

Run from the root of a checkout:

    python3 e2ebench/run.py --workload ingest --seed 1 --seconds 30 --trace 0
    python3 e2ebench/run.py --selftest

The first call configures and builds the runner (e2ebench/*.cc against
the program's sources in src/) into .bench_build/. Each call runs one
workload in its own process and prints, as its last line, one JSON
object with `correct`, `attempted`, `failed` and `metrics`: every
end-to-end metric of BENCHMARK.json with --trace 0, every per-layer
metric with --trace 1. --selftest runs every workload at its small size,
traced and untraced, and fails unless every correctness check passes.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Always inside this checkout: a build tree shared between checkouts
# would rebuild whichever source tree configured it first.
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "cmake", "gsn_e2ebench")
WORKLOADS = ("ingest", "query", "federation")
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures once, then lets the build tool decide what is stale."""
    cmake_dir = os.path.join(BUILD, "cmake")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", cmake_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    built = subprocess.run(["cmake", "--build", cmake_dir, "-j", jobs],
                           stdout=sys.stderr)
    return built.returncode == 0 and os.path.exists(BINARY)


def run_workload(workload, seed, seconds, trace, small, echo=True):
    """Runs one workload; returns (exit code, parsed record or None)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", os.path.join(BUILD, "out")]
    if small:
        cmd.append("--small")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: timed out after {RUN_TIMEOUT_S} s")
        return 1, None
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1] if echo else []:
        print(line)
    try:
        record = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        record = None
    return proc.returncode, record


def contract_metrics(record, trace):
    """Selects BENCHMARK.json's metrics for this mode from the record."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    measured = record["metrics"]
    out = {}
    for metric in spec["per_layer" if trace else "end_to_end"]:
        name = metric["name"]
        if name in measured:
            value = measured[name]["value"]
        elif trace:
            value = 0.0  # a layer this workload does not exercise
        else:
            raise KeyError(f"end-to-end metric {name} was not measured")
        if not trace and not value > 0:
            raise ValueError(f"end-to-end metric {name} reads {value}")
        out[name] = {"value": value, "unit": metric["unit"]}
    return out


def selftest():
    failures = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, record = run_workload(workload, 7, 1, trace, small=True,
                                      echo=False)
            ok = (code == 0 and record is not None and record["correct"]
                  and record["attempted"] > 0 and record["failed"] == 0)
            if ok:
                try:
                    contract_metrics(record, trace)
                except (KeyError, ValueError) as error:
                    log(error)
                    ok = False
            print(f"selftest {workload:<10} trace={trace} "
                  f"{'PASS' if ok else 'FAIL'}")
            failures += 0 if ok else 1
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="the workload's small size (seconds to run)")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if not build():
        log("build failed")
        return 1
    if args.selftest:
        return selftest()
    code, record = run_workload(args.workload, args.seed, args.seconds,
                              args.trace, args.small)
    if record is None:
        log(f"{args.workload}: no result (exit {code})")
        return code or 1
    try:
        metrics = contract_metrics(record, args.trace)
    except (KeyError, ValueError) as error:
        log(error)
        return 1
    print(json.dumps({"correct": record["correct"],
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": metrics}))
    return code


if __name__ == "__main__":
    sys.exit(main())
