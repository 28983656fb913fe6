#!/usr/bin/env python3
"""Compares two sides of the GDN benchmark: a base and a change.

From results files the benchmark binary wrote (--out), one or more per side:

    python3 benchmark/compare.py files --base a1.json a2.json --change b1.json b2.json

Or by running N alternating pairs of two benchmark binaries, each pair on a
fresh seed, the side that runs first alternating from pair to pair:

    python3 benchmark/compare.py pairs --base-binary OLD/globe_benchmark \\
        --change-binary NEW/globe_benchmark --runs 10 [--workload NAME] [--trace]

For every workload and metric it prints each side's median and quartiles,
the change's win fraction over the pairs (ties count for neither), and a
verdict. A metric BENCHMARK.json bounds is held to the base's own spread
(quartile distance over median), at least 2% and at most the bound: a
virtual-time latency whose base runs barely move may worsen by 2%, a noisy
real-time one by as much as its base spread, up to the bound. It gets
"REGRESSION" when the change's median is worse than the base's by more than
that, "unresolved" when the base spread exceeds the bound and the change does
not beat every base run, and otherwise "ok". Any metric gets "gain" when the
change wins at least 9 of 10 pairs and the medians differ by more than the
base's quartile distance.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Direction of the metrics the results carry beyond BENCHMARK.json's lists.
EXTRA_BETTER = {
    "write_p50_ms": "lower",
    "write_p99_ms": "lower",
    "fail_ratio": "lower",
    "wan_bytes_per_op": "lower",
}

# The least worsening counted as a regression, for metrics whose base runs
# barely move (the simulated workloads' virtual-time latencies).
TIGHT_BOUND = 0.02


def load_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = dict(EXTRA_BETTER)
    bounds = {}
    for entry in spec["end_to_end"]:
        better[entry["name"]] = entry["better"]
        bounds[entry["name"]] = entry["bound"]
    for entry in spec["per_layer"]:
        better[entry["name"]] = entry["better"]
    return better, bounds


def collect(paths):
    """{workload: {metric: [values in file order]}} over several results files."""
    table = {}
    for path in paths:
        results = json.loads(Path(path).read_text())
        for workload, result in results["workloads"].items():
            if not result["correct"]:
                print(f"warning: {path}: {workload} reported wrong outputs", file=sys.stderr)
            for metric, measured in result["metrics"].items():
                table.setdefault(workload, {}).setdefault(metric, []).append(
                    measured["value"])
    return table


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(name, base, change, better, bounds):
    lower = better.get(name, "lower") == "lower"
    def improves(new, old):
        return new < old if lower else new > old
    pairs = list(zip(base, change))
    decided = [p for p in pairs if p[0] != p[1]]
    wins = sum(1 for b, c in decided if improves(c, b))
    win_fraction = wins / len(pairs) if pairs else 0.0
    b_med, c_med = statistics.median(base), statistics.median(change)
    b_q1, b_q3 = quartiles(base)
    words = []
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and abs(c_med - b_med) > b_q3 - b_q1:
        words.append("gain")
    if name in bounds and b_med != 0:
        worse = (c_med - b_med) / abs(b_med) if lower else (b_med - c_med) / abs(b_med)
        spread = (b_q3 - b_q1) / abs(b_med)
        tolerance = min(bounds[name], max(TIGHT_BOUND, spread))
        all_better = all(improves(c, b) for c in change for b in base)
        if worse > tolerance:
            words.append(f"REGRESSION ({worse:+.1%} > {tolerance:.1%})")
        elif spread > bounds[name] and not all_better:
            words.append(f"unresolved (base spread {spread:.1%})")
        else:
            words.append("ok")
    elif not words:
        words.append("-")
    return win_fraction, " ".join(words)


def report(base_table, change_table):
    better, bounds = load_spec()
    regressions = 0
    for workload in sorted(set(base_table) & set(change_table)):
        print(f"\n== {workload}")
        print(f"  {'metric':28s} {'base median [q1, q3]':>34s} {'change median [q1, q3]':>34s}"
              f" {'wins':>5s}  verdict")
        for name, base in base_table[workload].items():
            change = change_table[workload].get(name)
            if not change:
                continue
            b_q1, b_q3 = quartiles(base)
            c_q1, c_q3 = quartiles(change)
            wins, word = verdict(name, base, change, better, bounds)
            regressions += word.startswith("REGRESSION")
            print(f"  {name:28s} {statistics.median(base):12.5g} [{b_q1:9.5g}, {b_q3:9.5g}]"
                  f" {statistics.median(change):12.5g} [{c_q1:9.5g}, {c_q3:9.5g}]"
                  f" {wins:5.2f}  {word}")
    return 1 if regressions else 0


def run_pairs(args):
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    sides = {"base": args.base_binary, "change": args.change_binary}
    files = {"base": [], "change": []}
    for i in range(args.runs):
        seed = args.first_seed + i
        order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
        for side in order:
            path = out / f"{side}-{seed}.json"
            cmd = [sides[side], f"--seed={seed}", f"--seconds={args.seconds}",
                   f"--out={path}"]
            if args.workload:
                cmd.append(f"--workload={args.workload}")
            if args.trace:
                cmd.append("--trace")
            print(f"pair {i + 1}/{args.runs}: {side} seed {seed}", file=sys.stderr)
            done = subprocess.run(cmd, stdout=subprocess.DEVNULL)
            if done.returncode != 0 or not path.exists():
                print(f"{side} run failed (exit {done.returncode})", file=sys.stderr)
                return 2
            files[side].append(path)
    return report(collect(files["base"]), collect(files["change"]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    from_files = sub.add_parser("files", help="compare existing results files")
    from_files.add_argument("--base", nargs="+", required=True)
    from_files.add_argument("--change", nargs="+", required=True)
    pairs = sub.add_parser("pairs", help="run alternating pairs of two binaries")
    pairs.add_argument("--base-binary", required=True)
    pairs.add_argument("--change-binary", required=True)
    pairs.add_argument("--runs", type=int, default=10)
    pairs.add_argument("--workload")
    pairs.add_argument("--trace", action="store_true")
    pairs.add_argument("--seconds", type=float,
                       default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    pairs.add_argument("--first-seed", type=int, default=1)
    pairs.add_argument("--out-dir", default=str(ROOT / "build-benchmark" / "compare"))
    args = parser.parse_args()
    if args.mode == "files":
        return report(collect(args.base), collect(args.change))
    return run_pairs(args)


if __name__ == "__main__":
    sys.exit(main())
