#!/usr/bin/env python3
"""Builds and runs the GDN benchmark; prints one JSON result as its last line.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds
build-benchmark/ (the `globe` library from source plus the benchmark binary);
later calls only let CMake confirm the build is current. Build output goes to
stderr, the benchmark's own report to stdout, and the last stdout line is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding every end-to-end metric BENCHMARK.json lists (--trace 0) or every
per-layer metric (--trace 1). Exits non-zero, without that line, when the
build or the run fails.

    python3 benchmark/run.py --smoke --binary PATH

is the CTest smoke test: every workload at 1/50 length, untraced and traced,
outputs checked, and every metric BENCHMARK.json lists present.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / "build-benchmark"
BINARY = BUILD / "globe_benchmark"
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; True on success."""
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "benchmark"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "globe_benchmark",
                  "-j", "4"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log(f"build step failed: {' '.join(step)}")
            return False
    return True


def listed_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def run_binary(binary, args, results_path):
    """Runs the benchmark binary; returns (exit code, parsed results or None)."""
    cmd = [str(binary)] + args + [f"--out={results_path}"]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
        return 1, None
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if not results_path.exists():
        return done.returncode or 1, None
    return done.returncode, json.loads(results_path.read_text())


def result_line(workload_result, trace):
    """The one-line result object, with the metrics BENCHMARK.json lists."""
    metrics = {}
    for entry in listed_metrics(trace):
        name = entry["name"]
        measured = workload_result["metrics"].get(name)
        if measured is None:
            raise KeyError(f"metric {name} missing from the results")
        metrics[name] = {"value": measured["value"], "unit": measured["unit"]}
    return {
        "correct": bool(workload_result["correct"]),
        "attempted": int(workload_result["attempted"]),
        "failed": int(workload_result["failed"]),
        "metrics": metrics,
    }


def run(args):
    if not build():
        return 1
    results_path = BUILD / f"results-{args.workload}-{args.seed}-{args.trace}.json"
    if results_path.exists():
        results_path.unlink()
    binary_args = [f"--workload={args.workload}", f"--seed={args.seed}",
                   f"--seconds={args.seconds}"]
    if args.trace:
        binary_args.append("--trace")
    code, results = run_binary(BINARY, binary_args, results_path)
    if results is None or args.workload not in results["workloads"]:
        log("benchmark produced no results")
        return 1
    try:
        line = result_line(results["workloads"][args.workload], args.trace)
    except KeyError as error:
        log(str(error))
        return 1
    print(json.dumps(line), flush=True)
    return 0 if code == 0 and line["correct"] else 1


def smoke(binary):
    """Every workload at 1/50 length, both modes: correct, and complete."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    out_dir = Path(binary).resolve().parent
    ok = True
    for trace in (0, 1):
        results_path = out_dir / f"smoke-{trace}.json"
        args = ["--seed=1", "--seconds=0.1", "--scale=0.02"] + (["--trace"] if trace else [])
        code, results = run_binary(binary, args, results_path)
        if code != 0 or results is None:
            log(f"smoke (trace {trace}): benchmark exited {code}")
            ok = False
            continue
        for workload in workloads:
            result = results["workloads"].get(workload)
            if result is None:
                log(f"smoke (trace {trace}): {workload} missing")
                ok = False
                continue
            try:
                line = result_line(result, trace)
            except KeyError as error:
                log(f"smoke (trace {trace}) {workload}: {error}")
                ok = False
                continue
            if not line["correct"] or line["attempted"] < 1:
                log(f"smoke (trace {trace}) {workload}: incorrect or empty")
                ok = False
    print("smoke: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--binary", default=str(BINARY))
    args = parser.parse_args()
    os.chdir(ROOT)
    if args.smoke:
        return smoke(args.binary)
    if not args.workload:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
