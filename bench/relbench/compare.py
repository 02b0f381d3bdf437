#!/usr/bin/env python3
"""Compares relbench result sets.

    compare.py PARENT_DIR CHANGE_DIR    verdict per (workload, metric)
    compare.py --agree A_DIR B_DIR      do two sets of one commit agree?

A result set is a directory of the records relbench writes to
relbench-out/results/ (traced records are ignored). Runs pair by
(workload, seed); take at least ten pairs and alternate which side runs
first.

Verdicts, for each end-to-end metric of each workload:
  IMPROVED    the change wins at least 9/10 of all pairs (ties count for
              neither), its median is better by more than the parent's
              interquartile range, and no more ops fail than at the parent;
  REGRESSED   the change's median is worse than the parent's by more than
              the metric's bound, or (fail_frac) more ops fail;
  UNRESOLVED  the run-to-run spread (interquartile range over median, on
              either side) is wider than the bound, unless every change run
              reads better than every parent run;
  SAME        otherwise.
Bounds and directions come from BENCHMARK.json. The latency classes a
workload reports that BENCHMARK.json does not list (write_p50_ms,
fresh_p95_ms, ...) take the rule of op_p50_ms or op_p95_ms, the class of
every op. The exit code is 1 when anything regressed (or, with --agree,
disagreed).
"""

import argparse
import glob
import json
import os
import statistics
import sys

MIN_PAIRS = 10
HERE = os.path.dirname(os.path.abspath(__file__))


def load_benchmark(path):
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def load_dir(path):
    records = []
    for name in sorted(glob.glob(os.path.join(path, "*.json"))):
        with open(name) as f:
            rec = json.load(f)
        if not rec.get("trace"):
            records.append(rec)
    return records


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def rel_spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def fail_share(records):
    attempted = sum(r["attempted"] for r in records)
    return sum(r["failed"] for r in records) / attempted if attempted else 0.0


def by_workload(records):
    out = {}
    for r in records:
        out.setdefault(r["workload"], []).append(r)
    return out


def metric_rule(spec, name):
    """(direction, bound) of metric `name`."""
    if name in spec:
        return spec[name]
    return spec["op_" + name.split("_", 1)[1]]


def better(a, b, direction):
    """True when value a is strictly better than value b."""
    return a < b if direction == "lower" else a > b


def compare(parent, change, spec):
    """Rows (workload, metric, fields...) comparing two record lists."""
    rows = []
    pw, cw = by_workload(parent), by_workload(change)
    for workload in sorted(set(pw) & set(cw)):
        p_recs, c_recs = pw[workload], cw[workload]
        p_seed = {r["seed"]: r for r in p_recs}
        c_seed = {r["seed"]: r for r in c_recs}
        seeds = sorted(set(p_seed) & set(c_seed))
        parent_first = sum(
            1 for s in seeds
            if p_seed[s].get("started_at", 0) < c_seed[s].get("started_at", 0))
        p_fail, c_fail = fail_share(p_recs), fail_share(c_recs)
        metrics = sorted(set(p_recs[0]["metrics"]) & set(c_recs[0]["metrics"]))
        for name in metrics:
            if name == "fail_frac":
                continue
            direction, bound = metric_rule(spec, name)
            pv = [r["metrics"][name]["value"] for r in p_recs]
            cv = [r["metrics"][name]["value"] for r in c_recs]
            pq, cq = quartiles(pv), quartiles(cv)
            wins = sum(
                1 for s in seeds
                if better(c_seed[s]["metrics"][name]["value"],
                          p_seed[s]["metrics"][name]["value"], direction))
            delta = (cq[1] - pq[1]) / pq[1] if pq[1] else 0.0
            worse = delta if direction == "lower" else -delta
            spread = max(rel_spread(pv), rel_spread(cv))
            all_better = all(better(c, p, direction) for c in cv for p in pv)
            if (len(seeds) >= MIN_PAIRS and wins >= 0.9 * len(seeds)
                    and better(cq[1], pq[1], direction)
                    and abs(cq[1] - pq[1]) > pq[2] - pq[0]
                    and c_fail <= p_fail):
                verdict = "IMPROVED"
            elif worse > bound:
                verdict = "REGRESSED"
            elif spread > bound and not all_better:
                verdict = "UNRESOLVED"
            else:
                verdict = "SAME"
            rows.append({
                "workload": workload, "metric": name, "parent": pq,
                "change": cq, "delta": delta,
                "wins": wins, "pairs": len(seeds), "parent_first": parent_first,
                "spread": spread, "bound": bound, "verdict": verdict})
        rows.append({
            "workload": workload, "metric": "fail_frac",
            "parent": (p_fail,) * 3, "change": (c_fail,) * 3,
            "delta": c_fail - p_fail, "wins": 0, "pairs": len(seeds),
            "parent_first": parent_first, "spread": 0.0, "bound": 0.0,
            "verdict": "REGRESSED" if c_fail > p_fail else "SAME"})
    return rows


def agree(a, b, spec):
    """Rows checking that every (workload, metric) median of set b lies
    within the metric's bound of set a's (fail shares must both be 0)."""
    rows = []
    aw, bw = by_workload(a), by_workload(b)
    for workload in sorted(set(aw) | set(bw)):
        if workload not in aw or workload not in bw:
            rows.append({"workload": workload, "metric": "-", "a": (0,) * 3,
                         "b": (0,) * 3, "delta": 0.0, "bound": 0.0,
                         "verdict": "MISSING"})
            continue
        a_recs, b_recs = aw[workload], bw[workload]
        for name in sorted(set(a_recs[0]["metrics"]) & set(b_recs[0]["metrics"])):
            if name == "fail_frac":
                fa, fb = fail_share(a_recs), fail_share(b_recs)
                rows.append({"workload": workload, "metric": name,
                             "a": (fa,) * 3, "b": (fb,) * 3, "delta": fb - fa,
                             "bound": 0.0,
                             "verdict": "AGREE" if fa == fb == 0 else "DISAGREE"})
                continue
            _, bound = metric_rule(spec, name)
            aq = quartiles([r["metrics"][name]["value"] for r in a_recs])
            bq = quartiles([r["metrics"][name]["value"] for r in b_recs])
            delta = (bq[1] - aq[1]) / aq[1] if aq[1] else 0.0
            rows.append({"workload": workload, "metric": name, "a": aq, "b": bq,
                         "delta": delta, "bound": bound,
                         "verdict": "AGREE" if abs(delta) <= bound else "DISAGREE"})
    return rows


def fmt(q):
    return "%.4g [%.4g, %.4g]" % (q[1], q[0], q[2])


def print_compare(rows):
    print("%-13s %-13s %-30s %-30s %8s %7s %8s  %s" % (
        "workload", "metric", "parent median [q1, q3]",
        "change median [q1, q3]", "delta", "wins", "spread", "verdict"))
    for r in rows:
        print("%-13s %-13s %-30s %-30s %+7.1f%% %3d/%-3d %7.3f  %s" % (
            r["workload"], r["metric"], fmt(r["parent"]), fmt(r["change"]),
            100 * r["delta"], r["wins"], r["pairs"], r["spread"], r["verdict"]))
    seen = set()
    for r in rows:
        if r["workload"] in seen:
            continue
        seen.add(r["workload"])
        if r["pairs"] < MIN_PAIRS:
            print("note: %s has %d pairs; a gain needs at least %d"
                  % (r["workload"], r["pairs"], MIN_PAIRS))
        if abs(2 * r["parent_first"] - r["pairs"]) > 1:
            print("note: %s ran the parent first in %d of %d pairs; alternate"
                  % (r["workload"], r["parent_first"], r["pairs"]))


def print_agree(rows):
    print("%-13s %-13s %-30s %-30s %8s %6s  %s" % (
        "workload", "metric", "set A median [q1, q3]", "set B median [q1, q3]",
        "delta", "bound", "verdict"))
    for r in rows:
        print("%-13s %-13s %-30s %-30s %+7.1f%% %5.0f%%  %s" % (
            r["workload"], r["metric"], fmt(r["a"]), fmt(r["b"]),
            100 * r["delta"], 100 * r["bound"], r["verdict"]))


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("first", help="parent result directory (set A with --agree)")
    parser.add_argument("second", help="change result directory (set B with --agree)")
    parser.add_argument("--agree", action="store_true",
                        help="check that two sets of the same commit agree")
    parser.add_argument("--benchmark",
                        default=os.path.join(HERE, "..", "..", "BENCHMARK.json"))
    args = parser.parse_args(argv)
    spec = load_benchmark(args.benchmark)
    first, second = load_dir(args.first), load_dir(args.second)
    if not first or not second:
        print("no untraced result records found", file=sys.stderr)
        return 2
    if args.agree:
        rows = agree(first, second, spec)
        print_agree(rows)
        return 0 if all(r["verdict"] == "AGREE" for r in rows) else 1
    rows = compare(first, second, spec)
    print_compare(rows)
    return 1 if any(r["verdict"] == "REGRESSED" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
