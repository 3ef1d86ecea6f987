#!/usr/bin/env python3
"""Compares two sets of bench_e2e runs (JSON-lines records from run.sh --out).

    python3 bench/e2e/compare.py A.jsonl B.jsonl [--benchmark BENCHMARK.json]

A is the base (the parent commit, or the first set of runs of one commit),
B the change. Record both with the same seeds, alternating which side runs
first for each seed. Within each workload, runs of A and B with the same
seed are paired (each run used once). For every (workload, metric with a
bound) it prints each side's median and quartiles across runs, the median
of the per-seed relative changes, their quartile distance (the run-to-run
spread of a change), the bound applied and a verdict:

  regressed   the median per-seed change is worse than the bound.
  unresolved  the per-seed changes spread wider than the bound, unless every
              B run reads better than every A run, so a regression cannot
              be ruled out.
  improved    B is better in at least nine tenths of the pairs (ties count
              for neither) and the medians differ by more than A's quartile
              distance.
  unchanged   none of the above.

Bounds. The virtual metrics repeat exactly on a seed (their replays run on
the virtual clock from one client), so paired runs hold them to
VIRTUAL_BOUND. setup_s takes its bound from BENCHMARK.json. The wall-clock
metrics are per-layer in BENCHMARK.json, because their spread across seeds
on a shared host is wider than the largest bound a benchmark may set; they
are held to WALL_BOUND here, and where their paired changes spread wider
than that they are reported unresolved. When A and B share no seed, the
medians of all runs are compared against BENCHMARK.json's bounds (which
cover the spread between seeds), and the spread is each side's quartile
distance.

Other per-layer metrics are listed without a verdict. Each workload ends
with a one-row summary. The exit code is 1 when any metric regressed or is
unresolved, or a run failed verification.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict

# Metrics computed on the virtual clock from one client: the same seed
# gives the same value, so a paired change is either zero or real.
VIRTUAL_METRICS = ("resp_mean_ms", "resp_p99_ms", "cache_efficiency",
                   "origin_kb_per_query", "cache_mb")
VIRTUAL_BOUND = 0.005

# Wall-clock metrics of the implementation, from the wall pass.
WALL_METRICS = ("workload.throughput_rps", "workload.client_wall_p50_us",
                "workload.client_wall_p99_us", "workload.proxy_wall_mean_us",
                "workload.proxy_wall_p50_us", "workload.proxy_wall_p99_us")
WALL_BOUND = 0.25


def load(path):
    runs = defaultdict(list)  # workload -> [record]
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                record = json.loads(line)
                runs[record["workload"]].append(record)
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def fmt(q):
    q1, median, q3 = q
    return f"{median:.5g} [{q1:.5g}, {q3:.5g}]"


def relative_spread(values):
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def values(records, metric):
    """(seed, value) of every run that reports `metric`."""
    return [(r["seed"], r["metrics"][metric]["value"])
            for r in records if metric in r["metrics"]]


def pair_by_seed(a, b):
    """Runs of A and B with the same seed, each run used at most once."""
    unused = defaultdict(list)
    for seed, value in b:
        unused[seed].append(value)
    return [(x, unused[seed].pop(0)) for seed, x in a if unused[seed]]


def worse_by(x, y, sign):
    """How much worse y is than x, as a share of x (negative: better)."""
    return sign * (y - x) / abs(x) if x else 0.0


def bound_for(name, meta, paired):
    """The bound a change in `name` is held to, or None for no verdict."""
    if name in WALL_METRICS:
        return WALL_BOUND
    if "bound" not in meta:
        return None
    if paired and name in VIRTUAL_METRICS:
        return VIRTUAL_BOUND
    return meta["bound"]


def verdict(a, b, pairs, bound, lower_is_better):
    """(verdict, change, spread) under the rules in the module docstring."""
    sign = 1.0 if lower_is_better else -1.0
    a_q1, a_med, a_q3 = quartiles(a)
    b_med = quartiles(b)[1]
    if pairs:
        changes = [worse_by(x, y, sign) for x, y in pairs]
        c_q1, change, c_q3 = quartiles(changes)
        spread = c_q3 - c_q1
    else:
        change = worse_by(a_med, b_med, sign)
        spread = max(relative_spread(a), relative_spread(b))
    all_better = all(sign * (y - x) < 0 for x in a for y in b)
    if change > bound:
        return "regressed", change, spread
    if spread > bound and not all_better:
        return "unresolved", change, spread
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    if pairs and wins >= 0.9 * len(pairs) and abs(b_med - a_med) > a_q3 - a_q1:
        return "improved", change, spread
    return "unchanged", change, spread


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument("--benchmark", default="BENCHMARK.json")
    args = parser.parse_args()

    with open(args.benchmark) as f:
        benchmark = json.load(f)
    catalog = {m["name"]: m
               for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    a_runs, b_runs = load(args.a), load(args.b)

    bad = False
    for workload in [w["name"] for w in benchmark["workloads"]]:
        a_recs, b_recs = a_runs.get(workload, []), b_runs.get(workload, [])
        if not a_recs or not b_recs:
            print(f"{workload}: no runs on {'A' if not a_recs else 'B'}")
            bad = True
            continue
        failed = [r for r in a_recs + b_recs if not r["correct"] or r["failed"]]
        print(f"\n{workload}: {len(a_recs)} runs in A, {len(b_recs)} in B")
        print(f"  {'metric':36} {'unit':6} {'A median [q1, q3]':>30} "
              f"{'B median [q1, q3]':>30} {'pairs':>5} {'change':>8} "
              f"{'spread':>7} {'bound':>6}  verdict")
        counts = defaultdict(list)
        for name, meta in catalog.items():
            a_runs_m, b_runs_m = values(a_recs, name), values(b_recs, name)
            if not a_runs_m or not b_runs_m:
                continue
            a = [v for _, v in a_runs_m]
            b = [v for _, v in b_runs_m]
            pairs = pair_by_seed(a_runs_m, b_runs_m)
            a_q, b_q = quartiles(a), quartiles(b)
            bound = bound_for(name, meta, bool(pairs))
            if bound is not None:
                v, change, spread = verdict(a, b, pairs, bound,
                                            meta["better"] == "lower")
                counts[v].append(name)
                tail = f"{change:>+8.2%} {spread:>7.2%} {bound:>6.1%}  {v}"
            else:
                change = (b_q[1] - a_q[1]) / abs(a_q[1]) if a_q[1] else 0.0
                tail = f"{change:>+8.2%} {'':>7} {'':>6}  -"
            print(f"  {name:36} {meta['unit']:6} {fmt(a_q):>30} {fmt(b_q):>30}"
                  f" {len(pairs):>5} {tail}")
        summary = ", ".join(f"{k}: {len(v)}" for k, v in sorted(counts.items()))
        flagged = counts["regressed"] + counts["unresolved"]
        print(f"  => {workload}: {summary}"
              + (f"; regressed or unresolved: {', '.join(flagged)}" if flagged else "")
              + (f"; {len(failed)} run(s) failed verification or queries"
                 if failed else ""))
        bad = bad or bool(flagged) or bool(failed)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
