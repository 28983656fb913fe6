#!/usr/bin/env python3
"""Fail CI when a benchmark regresses against its committed baseline.

Compares the BENCH_<name>.json files a bench run just produced against the
baselines committed under ci/baselines/. The bench worlds are deterministic
simulations, so hops / simulated latencies / per-subnode loads reproduce exactly;
the threshold only absorbs intentional-but-small drift. Lower is better for every
guarded column except those listed in HIGHER_IS_BETTER (throughput figures),
where the same threshold bounds how far the value may *fall*.

Usage:
  python3 ci/check_bench_regression.py \
      --baseline-dir ci/baselines --current-dir . [--threshold 0.25] \
      BENCH_gls_locality.json BENCH_gls_partitioning.json

With --headers-only it compares only the table count and the table headers of
each file with its baseline twin. Run on the committed repo-root reports, before
a bench run overwrites them, it fails when a root report has gone stale against
its baseline (or the baseline against the bench).

Exit status: 0 = no regression, 1 = regression or malformed input.
"""

import argparse
import json
import re
import sys

# Guarded columns per bench file: (file name -> column substrings, lower-is-better).
# A column is guarded when any of these substrings appears in its header — except
# the higher-is-better "... saved" columns, where growth is an improvement.
GUARDED_COLUMNS = {
    "BENCH_gls_locality.json": ["hops", "latency"],
    "BENCH_gls_partitioning.json": [
        "max lookups",
        "max entries",
        "p99 latency",
        "hottest root",
    ],
    "BENCH_gls_cache.json": ["avg hops", "avg latency", "round trips", "network msgs"],
    "BENCH_rpc_channel.json": ["per call", "pending events"],
    # Fail-over: slower elections are a regression, and the acked-write floor
    # means "writes lost" has a zero baseline that must stay zero (the viral
    # table's "writes lost" column rides the same guard). The viral table also
    # pins the online controller against the static oracle: "mean read" /
    # "read WAN" / "total WAN" guard read latency and WAN bytes in both the
    # policy and viral tables, and "migrations" keeps the adaptive row at one
    # migration — a flapping controller shows up as thrash here.
    "BENCH_replication_scenarios.json": [
        "time to new master",
        "mean write",
        "writes lost",
        "mean read",
        "read wan",
        "total wan",
        "migrations",
    ],
    # Socket backend wire protocol: frames and bytes per RPC are exact protocol
    # properties. Allocations per op are guarded too — the zero-copy delivery
    # path keeps them small, flat across payload sizes, and (measured) stable
    # run to run; the 25% threshold absorbs toolchain drift. Wall-clock columns
    # stay machine-bound and unguarded.
    "BENCH_wire_hotpath.json": ["frames/op", "wire bytes/op", "allocs/op"],
    # Planet scale: events/sec guards engine throughput (higher is better) and
    # peak RSS guards the memory-bounded directory (the whole point of the
    # bounded subnode store). Both are machine-sensitive — wall-clock columns
    # stay unguarded and the shared 25% threshold absorbs runner variance,
    # while an unbounded store blowing past capacity moves RSS far more than
    # that. "lost" must stay at its zero baseline (any growth from zero fails
    # regardless of threshold).
    "BENCH_planet_scale.json": ["events/sec", "peak rss", "lost"],
    # Protocol comparison: one table per write mix, all with the same headers
    # (paired by position). Mean operation latency and WAN bytes are exact
    # properties of each protocol's traffic, and "max staleness" bounds how far
    # secondaries trail the primary (zero baselines must stay zero).
    "BENCH_replication_protocols.json": ["mean op", "wan bytes", "max staleness"],
    # Binding: the cold and warm bind totals cover the GNS/GLS/install path a
    # GDN-HTTPD takes, and the TTL sweep's upstream queries track the naming
    # authority's record TTL. Rows are labelled by their first cell alone.
    "BENCH_binding.json": ["total", "upstream"],
    # Flash-crowd download: latency, WAN bytes and origin messages per
    # deployment (the zero origin messages of the replicated deployment must
    # stay zero).
    "BENCH_gdn_download.json": ["mean latency", "wan bytes", "origin msgs"],
    # Security overhead (paper 6.3): the 1 MB download's first and repeat
    # latency per channel mode, and the bytes each mode puts on the wire. All
    # three are virtual-time or byte counts, so a secure-path change that adds
    # a frame, a handshake round trip or a byte shows up here.
    "BENCH_security_overhead.json": ["first dl", "repeat dl", "wire bytes"],
}
EXCLUDED_COLUMN_MARKERS = ["saved"]
# Columns where larger values are improvements: the threshold bounds shrinkage
# instead of growth. Matched by substring against the lowercased header, same
# as GUARDED_COLUMNS.
HIGHER_IS_BETTER = ["events/sec"]
# Leading label cells identifying a row. Default: everything before the first
# guarded column (right when labels precede all data columns). Benches whose
# guarded columns sit to the right of unguarded machine-bound data — the planet
# table's wall-clock seconds vary run to run — pin an explicit width instead.
LABEL_COLUMNS = {"BENCH_planet_scale.json": 1, "BENCH_binding.json": 1}

_NUMBER = re.compile(r"^\s*(-?\d+(?:\.\d+)?)\s*([A-Za-z]*)")
# Cells format sizes and times in the unit that fits (19.86 KB, then 1.02 MB),
# so a value is compared in base units: a unit change is not a 1000x swing.
_UNITS = {"B": 1, "KB": 1024, "MB": 1024**2, "GB": 1024**3,
          "us": 1e-3, "ms": 1, "s": 1e3}


def leading_number(cell):
    """The numeric prefix of a cell like '25.4 ms' or '6', in base units."""
    match = _NUMBER.match(cell)
    if not match:
        return None
    return float(match.group(1)) * _UNITS.get(match.group(2), 1)


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as error:
        print(f"ERROR: cannot read {path}: {error}")
        return None


def table_key(table):
    return tuple(table.get("headers", []))


def compare_headers(name, baseline, current):
    """Returns a mismatch message when the files' table lists differ."""
    base_headers = [list(table_key(t)) for t in baseline.get("tables", [])]
    cur_headers = [list(table_key(t)) for t in current.get("tables", [])]
    if base_headers == cur_headers:
        return []
    return [
        f"{name}: {len(cur_headers)} tables {cur_headers} differ from the "
        f"baseline's {len(base_headers)} tables {base_headers}"
    ]


def compare_file(name, baseline, current, threshold):
    """Returns a list of regression messages for one bench file."""
    guards = GUARDED_COLUMNS.get(name, [])
    if not guards:
        return []
    problems = []
    # Tables pair by headers; tables that share headers pair in order.
    current_tables = {}
    for table in current.get("tables", []):
        current_tables.setdefault(table_key(table), []).append(table)
    for base_table in baseline.get("tables", []):
        headers = base_table.get("headers", [])
        same_headers = current_tables.get(tuple(headers), [])
        cur_table = same_headers.pop(0) if same_headers else None
        if cur_table is None:
            problems.append(f"{name}: table {headers} missing from current run")
            continue
        guarded = [
            i
            for i, header in enumerate(headers)
            if any(g in header.lower() for g in guards)
            and not any(marker in header.lower() for marker in EXCLUDED_COLUMN_MARKERS)
        ]
        # Rows are identified by their label cells: everything before the first
        # guarded (data) column. Tables with several label columns — e.g. the
        # fail-over table's (mode, lease timings) — stay unambiguous this way.
        label_len = LABEL_COLUMNS.get(
            name, max(1, min(guarded)) if guarded else 1
        )
        cur_rows = {
            tuple(row[:label_len]): row for row in cur_table.get("rows", []) if row
        }
        for base_row in base_table.get("rows", []):
            if not base_row:
                continue
            label = " / ".join(base_row[:label_len])
            cur_row = cur_rows.get(tuple(base_row[:label_len]))
            if cur_row is None:
                problems.append(f"{name}: row '{label}' missing from current run")
                continue
            for i in guarded:
                if i >= len(base_row) or i >= len(cur_row):
                    continue
                base_value = leading_number(base_row[i])
                cur_value = leading_number(cur_row[i])
                if base_value is None:
                    continue
                # A numeric baseline turning non-numeric (e.g. a fail-over
                # time becoming "never") is a total failure, not a skip.
                if cur_value is None:
                    problems.append(
                        f"{name}: '{label}' / '{headers[i]}' regressed "
                        f"{base_value:g} -> non-numeric '{cur_row[i]}'"
                    )
                    continue
                higher_better = any(
                    g in headers[i].lower() for g in HIGHER_IS_BETTER
                )
                if higher_better:
                    limit = base_value * (1.0 - threshold)
                    regressed = cur_value < limit
                else:
                    limit = base_value * (1.0 + threshold)
                    # Baselines of 0 (e.g. 0 hops) must stay 0: any growth from
                    # a zero baseline is a regression the ratio test cannot see.
                    regressed = cur_value > limit or (
                        base_value == 0 and cur_value > 0
                    )
                if regressed:
                    problems.append(
                        f"{name}: '{label}' / '{headers[i]}' regressed "
                        f"{base_value:g} -> {cur_value:g} "
                        f"(limit {limit:g}, threshold {threshold:.0%})"
                    )
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline-dir", required=True)
    parser.add_argument("--current-dir", required=True)
    parser.add_argument("--threshold", type=float, default=0.25)
    parser.add_argument("--headers-only", action="store_true",
                        help="compare table count and headers only")
    parser.add_argument("files", nargs="+")
    args = parser.parse_args()

    failures = []
    for name in args.files:
        baseline = load(f"{args.baseline_dir}/{name}")
        current = load(f"{args.current_dir}/{name}")
        if baseline is None or current is None:
            failures.append(f"{name}: missing or unreadable JSON")
            continue
        if args.headers_only:
            problems = compare_headers(name, baseline, current)
        else:
            problems = compare_file(name, baseline, current, args.threshold)
        if problems:
            failures.extend(problems)
        elif args.headers_only:
            print(f"OK: {name} has the baseline's tables")
        else:
            print(f"OK: {name} within {args.threshold:.0%} of baseline")

    if failures:
        print()
        label = "STALE" if args.headers_only else "REGRESSION"
        for failure in failures:
            print(f"{label}: {failure}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
