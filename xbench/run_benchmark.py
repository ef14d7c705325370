#!/usr/bin/env python3
"""Build xbench from source and run the end-to-end benchmark workloads.

Run from the repository root (standard library only, Python 3.9+):

  python3 xbench/run_benchmark.py --workload campaign_grid --seed 1 \\
      --seconds 18 --trace 0          # one workload, one fresh process
  python3 xbench/run_benchmark.py --seed 1          # every workload
  python3 xbench/run_benchmark.py --seed 1 --repeat 3
      # workloads interleaved across fresh processes, N rounds, with
      # median and quartiles per metric and the spread checked against
      # each end-to-end bound in BENCHMARK.json

The last line of stdout is one JSON object with exactly the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end_to_end metrics of BENCHMARK.json, with --trace 1 its per_layer metrics.
A result digest that differs from the one pinned in pinned_digests.txt
fails every operation of the run, and the exit code is then nonzero.
xbench/README.md documents the workloads, metrics and trace format.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
CMAKE_DIR = BUILD / "cmake"
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once and builds xbench (incremental); returns the binary."""
    steps = []
    if not (CMAKE_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(CMAKE_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(CMAKE_DIR), "--target", "xbench",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout)
            raise BenchError("build failed: " + " ".join(cmd))
    return CMAKE_DIR / "xbench"


def load_pinned():
    pinned = {}
    for line in (HERE / "pinned_digests.txt").read_text().splitlines():
        fields = line.split("#", 1)[0].split()
        if fields:
            workload, seed, digest = fields
            pinned[(workload, int(seed))] = digest
    return pinned


def run_xbench(binary, workload, seed, seconds, trace, pinned):
    """One workload in one fresh process; returns xbench's result object."""
    out_dir = BUILD / "out" / workload
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", str(out_dir)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("%s: no result within %d s" % (workload, RUN_TIMEOUT_S))
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise BenchError("%s: xbench exited %d without a result"
                         % (workload, proc.returncode))
    want = pinned.get((workload, seed))
    if want is not None and result["digest"] != want:
        log("%s seed %d: digest %s, pinned %s"
            % (workload, seed, result["digest"], want))
        result["correct"] = False
    if not result["correct"]:
        result["failed"] = result["attempted"]
    return result


def select_metrics(result, specs):
    metrics = result["metrics"]
    missing = [m["name"] for m in specs if m["name"] not in metrics]
    if missing:
        raise BenchError("%s: missing metrics %s" % (result["workload"], missing))
    return {m["name"]: metrics[m["name"]] for m in specs}


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) of a list of numbers."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else 0.0


def calibration_s():
    """Fixed spin loop: a host-speed reference recorded beside results."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(3_000_000):
        acc += i & 7
    return time.perf_counter() - t0


def environment():
    cache = {}
    cache_file = CMAKE_DIR / "CMakeCache.txt"
    if cache_file.exists():
        for line in cache_file.read_text().splitlines():
            key, sep, value = line.partition("=")
            if sep and ":" in key:
                cache[key.split(":")[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], stdout=subprocess.PIPE,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                text=True).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {
        "commit": commit,
        "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
        "compiler": version,
        "nproc": os.cpu_count(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "calibration_s": round(calibration_s(), 4),
    }


def report(config, results, specs):
    """Prints every metric per workload with median and quartiles; returns
    the medians and the (workload, metric) pairs whose spread exceeds the
    metric's bound."""
    bounds = {m["name"]: m.get("bound") for m in config["end_to_end"]}
    print("%-20s %-24s %14s %14s %14s %7s %s" % (
        "workload", "metric", "median", "q1", "q3", "spread", "unit"))
    medians = {}
    flagged = []
    for workload in config_workloads(config):
        runs = [r for r in results if r["workload"] == workload]
        if not runs:
            continue
        digests = sorted({r["digest"] for r in runs})
        counts = sorted({(r["attempted"], r["failed"]) for r in runs})
        print("%s: %d run(s), digest %s, attempted/failed %s"
              % (workload, len(runs), ",".join(digests), counts))
        for spec in specs:
            values = [r["metrics"][spec["name"]]["value"] for r in runs]
            med, q1, q3, rel = spread(values)
            medians["%s/%s" % (workload, spec["name"])] = {
                "value": med, "unit": spec["unit"]}
            bound = bounds.get(spec["name"])
            flag = ""
            if bound is not None and rel > bound:
                flag = "  SPREAD > BOUND %.2f" % bound
                flagged.append((workload, spec["name"]))
            print("%-20s %-24s %14.6g %14.6g %14.6g %6.1f%% %s%s" % (
                workload, spec["name"], med, q1, q3, 100 * rel, spec["unit"], flag))
    return medians, flagged


def config_workloads(config):
    return [w["name"] for w in config["workloads"]]


def main():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=config_workloads(config))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=config["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1)
    args = parser.parse_args()
    specs = config["per_layer"] if args.trace else config["end_to_end"]

    try:
        binary = build()
        pinned = load_pinned()
        if args.workload and args.repeat == 1:
            result = run_xbench(binary, args.workload, args.seed, args.seconds,
                                args.trace, pinned)
            shown = {m["name"] for m in specs}
            for name, m in result["metrics"].items():
                if name not in shown:
                    print("# %s %s: %.6g %s" % (args.workload, name, m["value"], m["unit"]))
            final = {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": select_metrics(result, specs),
            }
        else:
            workloads = [args.workload] if args.workload else config_workloads(config)
            print("env %s" % json.dumps(environment()))
            results = []
            for rep in range(args.repeat):
                for workload in workloads:
                    result = run_xbench(binary, workload, args.seed, args.seconds,
                                        args.trace, pinned)
                    select_metrics(result, specs)
                    results.append(result)
                    print("round %d %s: correct=%s digest=%s ops=%d"
                          % (rep, workload, result["correct"], result["digest"],
                             result["ops"]), flush=True)
            medians, flagged = report(config, results, specs)
            for workload, name in flagged:
                log("spread of %s on %s exceeds its bound" % (name, workload))
            final = {
                "correct": all(r["correct"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": medians,
            }
    except BenchError as e:
        log("run_benchmark: %s" % e)
        return 1
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
