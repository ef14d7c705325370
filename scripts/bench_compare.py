#!/usr/bin/env python3
"""Compare two BENCH_*.json perf records and print per-benchmark deltas.

Usage:
    bench_compare.py BASELINE.json CURRENT.json
    bench_compare.py --auto-baseline CURRENT.json
    bench_compare.py --gates GATES.txt RECORD.json

With --auto-baseline the baseline is the committed BENCH_pr<N>.json with
the highest N (searched next to this script's repo root, or in
--baseline-dir). CI uses this mode so the comparison step never needs a
hand-bumped filename when a new PR lands its record.

Both files follow the bench_sim_speed / xsweep record shape:

    {"bench": "sim_speed", "results": [
        {"name": "BM_FlitHop/width:32/...", "items_per_s": 123.4, ...},
        ...]}

Benchmarks are matched by name. The report lists matched benchmarks with
their items/s delta, then names entries present in only one record
(benchmark parametrizations change across PRs; that is informational,
not an error). The report always exits 0: shared runners are too noisy
to block on a cross-record delta.

--gates GATES.txt checks pair gates within ONE record instead: each table
line names a numerator row, a denominator row, a floor and a one-line
reason, and the script exits nonzero unless every numerator runs at
>= floor x its denominator (bench/pair_gates.txt is CI's table; names
contain ':' and '/', never whitespace).
"""

import argparse
import glob
import json
import os
import re
import sys


def newest_committed_baseline(directory):
    """Returns the BENCH_pr<N>.json with the highest N, or None."""
    best = None
    best_n = -1
    for path in glob.glob(os.path.join(directory, "BENCH_pr*.json")):
        m = re.fullmatch(r"BENCH_pr(\d+)\.json", os.path.basename(path))
        if m and int(m.group(1)) > best_n:
            best_n = int(m.group(1))
            best = path
    return best


def load_results(path):
    with open(path, "r", encoding="utf-8") as f:
        record = json.load(f)
    results = {}
    for entry in record.get("results", []):
        name = entry.get("name")
        if name:
            results[name] = entry
    return record.get("bench", "?"), results


def load_gates(path):
    """(numerator, denominator, floor text, reason) per table line."""
    gates = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            fields = line.split(None, 3)
            if not fields or fields[0].startswith("#"):
                continue
            if len(fields) < 4:
                sys.exit(f"{path}:{lineno}: want NUMERATOR DENOMINATOR "
                         "FLOOR REASON")
            try:
                float(fields[2])
            except ValueError:
                sys.exit(f"{path}:{lineno}: bad floor {fields[2]!r}")
            gates.append((fields[0], fields[1], fields[2],
                          fields[3].strip()))
    return gates


def check_gates(gates_path, record_path):
    """Prints one verdict per gate; 1 if any gate fails, else 0."""
    _kind, results = load_results(record_path)
    failed = False
    for num, den, floor, reason in load_gates(gates_path):
        n = results.get(num, {}).get("items_per_s")
        d = results.get(den, {}).get("items_per_s")
        if not n or not d or d <= 0:
            print(f"FAIL: {num} vs {den}: missing entry or no items_per_s")
            failed = True
            continue
        ratio = n / d
        verdict = "ok" if ratio >= float(floor) else "FAIL"
        print(f"{verdict}: {num}: {ratio:.2f}x {den} "
              f"(required >= {floor}x: {reason})")
        failed = failed or ratio < float(floor)
    return 1 if failed else 0


def fmt_rate(value):
    if value is None:
        return "-"
    if value >= 1e6:
        return f"{value / 1e6:.2f}M"
    if value >= 1e3:
        return f"{value / 1e3:.1f}k"
    return f"{value:.1f}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", nargs="?", default=None)
    parser.add_argument("current")
    parser.add_argument(
        "--auto-baseline",
        action="store_true",
        help="baseline = committed BENCH_pr<N>.json with the highest N",
    )
    parser.add_argument(
        "--baseline-dir",
        default=None,
        metavar="DIR",
        help="where --auto-baseline searches (default: the repo root)",
    )
    parser.add_argument(
        "--gates",
        default=None,
        metavar="GATES.txt",
        help="check the pair-gate table against the one record given "
             "(exit 1 if any gate fails)",
    )
    args = parser.parse_args()

    if args.gates is not None:
        if args.baseline is not None or args.auto_baseline:
            parser.error("--gates takes exactly one record")
        return check_gates(args.gates, args.current)

    if args.auto_baseline:
        if args.baseline is not None:
            parser.error("--auto-baseline replaces the BASELINE argument")
        directory = args.baseline_dir or os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))
        args.baseline = newest_committed_baseline(directory)
        if args.baseline is None:
            print(f"no committed BENCH_pr*.json under {directory}; "
                  "nothing to compare against")
            return 0
    elif args.baseline is None:
        parser.error("BASELINE argument or --auto-baseline required")

    base_kind, base = load_results(args.baseline)
    cur_kind, cur = load_results(args.current)

    print(f"baseline: {args.baseline} ({base_kind}, {len(base)} entries)")
    print(f"current:  {args.current} ({cur_kind}, {len(cur)} entries)")
    print()

    matched = sorted(set(base) & set(cur))
    only_base = sorted(set(base) - set(cur))
    only_cur = sorted(set(cur) - set(base))

    if matched:
        width = max(len(name) for name in matched)
        print(f"{'benchmark':<{width}}  {'base':>10}  {'current':>10}  delta")
        for name in matched:
            b = base[name].get("items_per_s")
            c = cur[name].get("items_per_s")
            if b and c and b > 0:
                delta = f"{100.0 * (c - b) / b:+.1f}%"
            else:
                delta = "-"
            print(f"{name:<{width}}  {fmt_rate(b):>10}  {fmt_rate(c):>10}  "
                  f"{delta}")
        print()

    if only_base:
        print(f"only in baseline ({len(only_base)}):")
        for name in only_base:
            print(f"  {name}")
    if only_cur:
        print(f"only in current ({len(only_cur)}):")
        for name in only_cur:
            print(f"  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
