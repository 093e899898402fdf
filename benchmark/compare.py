#!/usr/bin/env python3
"""Summarise and compare benchmark results.

    python3 benchmark/compare.py --summary DIR
        Median and quartiles of every metric in DIR, per workload, and the
        output-check and failure totals.

    python3 benchmark/compare.py BEFORE_DIR AFTER_DIR
        One row per workload and end-to-end metric, judging AFTER against
        BEFORE. Exits 1 if any row is "regressed" or "unresolved", or if
        the failed fraction of any workload went up.

A result directory holds one file per run, `<workload>.seed<N>.trace<T>.json`,
each the JSON line the benchmark printed (benchmark/run.sh writes them).
Runs of the two sides are paired by seed when both sides ran the same seeds,
otherwise in seed order; run the two commits alternately so each pair shares
the machine's conditions.

Verdicts, per workload and end-to-end metric:
  improved    AFTER wins at least 9 of 10 pairs (ties count for neither)
              and the medians differ by more than BEFORE's interquartile
              range, in the better direction.
  regressed   AFTER's median is worse than BEFORE's by more than the
              metric's bound in BENCHMARK.json (setup_s must also be worse
              by more than 20 ms: shorter set-ups are mostly jitter).
  unresolved  either side's spread (IQR over median) exceeds the bound
              (for setup_s, also the 20 ms), unless every AFTER run beats
              every BEFORE run.
  unchanged   none of the above.
"""

import json
import os
import re
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_FLOOR_S = 0.020
RESULT = re.compile(r"^(?P<workload>[A-Za-z0-9_.-]+)\.seed(?P<seed>\d+)"
                    r"\.trace(?P<trace>[01])\.json$")


def load_benchmark():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m for m in bench["end_to_end"]}, \
        {m["name"]: m for m in bench["per_layer"]}


def load_runs(directory, trace):
    """{workload: [(seed, result), ...]} sorted by seed."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        match = RESULT.match(name)
        if not match or int(match["trace"]) != trace:
            continue
        with open(os.path.join(directory, name)) as f:
            lines = [line for line in f.read().splitlines() if line.strip()]
        if not lines:
            continue
        runs.setdefault(match["workload"], []).append(
            (int(match["seed"]), json.loads(lines[-1])))
    for results in runs.values():
        results.sort(key=lambda r: r[0])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def spread(values):
    q1, q3 = quartiles(values)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else 0.0


def values_of(results, metric):
    return [r["metrics"][metric]["value"] for _, r in results
            if metric in r.get("metrics", {})]


def failed_fraction(results):
    attempted = sum(r["attempted"] for _, r in results)
    failed = sum(r["failed"] for _, r in results)
    return failed / attempted if attempted else 0.0


def summary(directory):
    end_to_end, per_layer = load_benchmark()
    ok = True
    for trace, metrics in ((0, end_to_end), (1, per_layer)):
        runs = load_runs(directory, trace)
        for workload, results in sorted(runs.items()):
            bad = [seed for seed, r in results if not r.get("correct")]
            ok = ok and not bad
            print(f"\n{workload}  trace={trace}  runs={len(results)}  "
                  f"failed_fraction={failed_fraction(results):.3g}"
                  + (f"  OUTPUT CHECK FAILED seeds={bad}" if bad else ""))
            print(f"  {'metric':40} {'median':>14} {'q1':>14} {'q3':>14}"
                  f" {'iqr/med':>8}  unit")
            for name, spec in metrics.items():
                vals = values_of(results, name)
                if not vals:
                    continue
                q1, q3 = quartiles(vals)
                print(f"  {name:40} {statistics.median(vals):14.6g} "
                      f"{q1:14.6g} {q3:14.6g} {100 * spread(vals):7.2f}%"
                      f"  {spec['unit']}")
    return 0 if ok else 1


def pairs(before, after):
    b_seeds = [s for s, _ in before]
    a_seeds = [s for s, _ in after]
    if sorted(b_seeds) == sorted(a_seeds):
        by_seed = dict(after)
        return [(r, by_seed[s]) for s, r in before]
    return [(b, a) for (_, b), (_, a) in zip(before, after)]


def verdict(spec, before, after, paired):
    lower = spec["better"] == "lower"
    bound = spec["bound"]

    def better(x, y):  # x beats y
        return x < y if lower else x > y

    med_b = statistics.median(before)
    med_a = statistics.median(after)
    q1, q3 = quartiles(before)
    wins = sum(1 for b, a in paired if better(a, b))
    share = wins / len(paired) if paired else 0.0
    worse_by = (med_a - med_b) if lower else (med_b - med_a)
    all_better = all(better(a, b) for a in after for b in before)
    # How far a median may move, and a side's IQR spread, before it counts.
    tolerance = bound * abs(med_b)
    if spec["name"] == "setup_s":
        tolerance = max(tolerance, SETUP_FLOOR_S)

    def too_wide(values):
        lo, hi = quartiles(values)
        return hi - lo > max(tolerance, bound * abs(statistics.median(values)))

    if share >= 0.9 and better(med_a, med_b) and abs(med_a - med_b) > q3 - q1:
        result = "improved"
    elif worse_by > tolerance:
        result = "regressed"
    elif (too_wide(before) or too_wide(after)) and not all_better:
        result = "unresolved"
    else:
        result = "unchanged"
    return med_b, med_a, share, result


def compare(before_dir, after_dir):
    end_to_end, _ = load_benchmark()
    before_runs = load_runs(before_dir, 0)
    after_runs = load_runs(after_dir, 0)
    status = 0
    print(f"{'workload':16} {'metric':22} {'before':>12} {'after':>12} "
          f"{'change':>8} {'won':>5}  verdict")
    for workload in sorted(set(before_runs) & set(after_runs)):
        before, after = before_runs[workload], after_runs[workload]
        paired = pairs(before, after)
        for name, spec in end_to_end.items():
            vb, va = values_of(before, name), values_of(after, name)
            if not vb or not va:
                continue
            metric_pairs = [(b["metrics"][name]["value"],
                             a["metrics"][name]["value"]) for b, a in paired]
            med_b, med_a, share, result = verdict(spec, vb, va, metric_pairs)
            change = (med_a - med_b) / abs(med_b) * 100 if med_b else 0.0
            print(f"{workload:16} {name:22} {med_b:12.5g} {med_a:12.5g} "
                  f"{change:+7.2f}% {share:5.0%}  {result}")
            if result in ("regressed", "unresolved"):
                status = 1
        fb, fa = failed_fraction(before), failed_fraction(after)
        if fa > fb:
            print(f"{workload:16} failed_fraction rose from {fb:.3g} to "
                  f"{fa:.3g}")
            status = 1
        if not all(r.get("correct") for _, r in before + after):
            print(f"{workload:16} an output check failed")
            status = 1
    missing = set(before_runs) ^ set(after_runs)
    if missing:
        print("workloads on one side only: " + ", ".join(sorted(missing)))
        status = 1
    return status


def main(argv):
    if len(argv) == 3 and argv[1] == "--summary":
        return summary(argv[2])
    if len(argv) == 3:
        return compare(argv[1], argv[2])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
