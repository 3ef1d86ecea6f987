#!/usr/bin/env python3
"""Fails CI when a benchmark metric regresses beyond tolerance.

Both inputs are JSON-lines files (one JSON object per line, see
docs/FORMATS.md). BASELINE is the committed BENCH_results.json.

Component gates (the default): FRESH is a fresh BENCH_results-style file
and every --metric NAME is higher-is-better (e.g. the columnar-scan speedup
ratio, the overload sweep's goodput retention); the gate fails when a fresh
value drops more than --tolerance (default 20%) below its baseline.

End-to-end gate (--e2e): FRESH is the results file bench/e2e/run.sh appends
to (build-e2e/results.jsonl). Every e2e/<workload>/<metric> record of
BASELINE is compared with the last bench_e2e record of that workload and
seed in FRESH. Each metric's direction is the `better` field of its
end_to_end entry in BENCHMARK.json (read, never written); the gate fails
when a metric moves the worse way by more than --tolerance (default 0.5%,
the seed-paired bound of bench/e2e/compare.py: these metrics run on the
virtual clock and repeat exactly on a seed). A baseline record whose
workload or seed has no fresh run fails the gate.

Usage:
  check_bench_regression.py BASELINE FRESH [--metric NAME]... [--tolerance F]
  check_bench_regression.py BASELINE FRESH --e2e [--benchmark PATH]
                            [--tolerance F]

--metric may repeat to gate several metrics in one invocation; with no
--metric flag the historical default (subsumed_scan/speedup) is used.
"""

import argparse
import json
import os
import sys

E2E_PREFIX = "e2e/"


def records(path):
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield json.loads(line)


def load_metric(path, metric, agg):
    values = []
    for record in records(path):
        # Records carry bench-specific extra fields (e.g. per-phase latency
        # columns) and some may omit name/value entirely; skip anything that
        # is not a (name, value) measurement of `metric`.
        if record.get("name") != metric:
            continue
        value = record.get("value")
        if value is None:
            continue
        values.append(float(value))
    if not values:
        sys.exit(f"error: metric '{metric}' not found in {path}")
    # The files are append-only: a baseline takes its most recent record; a
    # fresh file may hold several repeat runs, and best-of-N filters out the
    # scheduling noise of shared CI runners.
    return values[-1] if agg == "last" else max(values)


def worse_by(baseline, fresh, better):
    """The fraction by which `fresh` is worse than `baseline` (negative when
    it is better)."""
    if baseline == 0:
        worse = fresh > 0 if better == "lower" else fresh < 0
        return float("inf") if worse else 0.0
    if better == "higher":
        return (baseline - fresh) / abs(baseline)
    return (fresh - baseline) / abs(baseline)


def check_components(args):
    tolerance = 0.20 if args.tolerance is None else args.tolerance
    failed = []
    for metric in args.metrics or ["subsumed_scan/speedup"]:
        baseline = load_metric(args.baseline, metric, "last")
        fresh = load_metric(args.fresh, metric, "max")
        drop = worse_by(baseline, fresh, "higher")
        print(
            f"{metric}: baseline={baseline:.4f} fresh={fresh:.4f} "
            f"drop={drop * 100:.1f}% (tolerance {tolerance * 100:.0f}%)"
        )
        if drop > tolerance:
            failed.append(metric)
    return failed


def check_e2e(args):
    tolerance = 0.005 if args.tolerance is None else args.tolerance
    with open(args.benchmark, "r", encoding="utf-8") as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    # Last fresh bench_e2e record per (workload, seed).
    fresh = {}
    for record in records(args.fresh):
        if record.get("bench") == "bench_e2e":
            fresh[(record.get("workload"), record.get("seed"))] = record
    # Last baseline record per name.
    baselines = {}
    for record in records(args.baseline):
        name = record.get("name", "")
        if name.startswith(E2E_PREFIX):
            baselines[name] = record
    if not baselines:
        sys.exit(f"error: no {E2E_PREFIX}* records in {args.baseline}")

    failed = []
    for name, record in baselines.items():
        workload, metric = name[len(E2E_PREFIX):].split("/", 1)
        if metric not in better:
            sys.exit(f"error: {name}: '{metric}' is not an end_to_end metric "
                     f"of {args.benchmark}")
        run = fresh.get((workload, record.get("seed")))
        value = None if run is None else run["metrics"].get(metric, {}).get(
            "value")
        if value is None:
            print(f"{name}: no fresh seed-{record.get('seed')} run")
            failed.append(name)
            continue
        baseline = float(record["value"])
        worse = worse_by(baseline, float(value), better[metric])
        print(f"{name}: baseline={baseline:.6g} fresh={value:.6g} "
              f"worse={worse * 100:+.3f}% ({better[metric]} is better, "
              f"tolerance {tolerance * 100:.1f}%)")
        if worse > tolerance:
            failed.append(name)
    return failed


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parser = argparse.ArgumentParser()
    parser.add_argument("baseline")
    parser.add_argument("fresh")
    parser.add_argument("--metric", action="append", dest="metrics")
    parser.add_argument("--tolerance", type=float, default=None)
    parser.add_argument("--e2e", action="store_true",
                        help="gate the e2e/* records against bench_e2e runs")
    parser.add_argument("--benchmark",
                        default=os.path.join(root, "BENCHMARK.json"))
    args = parser.parse_args()

    failed = check_e2e(args) if args.e2e else check_components(args)
    if failed:
        sys.exit(f"error: regressed beyond tolerance: {', '.join(failed)}")
    print("ok")


if __name__ == "__main__":
    main()
