#!/usr/bin/env python3
"""Compares the layer self time of two sets of traced benchmark runs.

    python3 perfbench/trace_report.py BEFORE AFTER

BEFORE and AFTER are each a trace file written by a --trace 1 run
(.bench_build/traces/<workload>-seed<n>.json) or a directory of them. For
every workload present in both, prints per layer span: calls per
operation, self time per operation (span duration minus its children's)
on each side, and the difference. "op" is the operation's own self time:
the glue no layer span covers. Set-up and probe spans (outside any
operation) are left out. Several files of one workload are pooled.
"""

import argparse
import collections
import json
import os
import sys

NAME, ID, PARENT, OP, START, DUR, CALLS = range(7)


def load(path):
    """Returns {workload: [trace dict, ...]} for a file or a directory."""
    if os.path.isdir(path):
        files = sorted(os.path.join(path, f) for f in os.listdir(path)
                       if f.endswith(".json"))
    else:
        files = [path]
    runs = collections.defaultdict(list)
    for f in files:
        with open(f) as fh:
            trace = json.load(fh)
        runs[trace["workload"]].append(trace)
    return runs


def layer_table(traces):
    """Returns ({layer: (calls per op, self ms per op)}, op count)."""
    calls = collections.Counter()
    self_us = collections.Counter()
    ops = 0
    for trace in traces:
        spans = [s for s in trace["spans"] if s[OP] != 0]
        child_us = collections.Counter()
        for s in spans:
            child_us[s[PARENT]] += s[DUR]
        for s in spans:
            calls[s[NAME]] += s[CALLS]
            self_us[s[NAME]] += s[DUR] - child_us[s[ID]]
            ops += s[NAME] == "op"
    if ops == 0:
        return {}, 0
    return ({name: (calls[name] / ops, self_us[name] / ops / 1e3)
             for name in calls}, ops)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("before")
    parser.add_argument("after")
    args = parser.parse_args()
    before, after = load(args.before), load(args.after)
    common = sorted(set(before) & set(after))
    if not common:
        sys.exit("no workload is traced on both sides")
    for workload in common:
        a, ops_a = layer_table(before[workload])
        b, ops_b = layer_table(after[workload])
        print("\n%s  (ops: %d before, %d after; per-op values)"
              % (workload, ops_a, ops_b))
        print("%-22s %10s %10s %10s %10s %10s %8s" % (
            "layer", "calls_a", "self_ms_a", "calls_b", "self_ms_b",
            "delta_ms", "delta%"))
        total_a = total_b = 0.0
        for name in sorted(set(a) | set(b),
                           key=lambda n: -max(a.get(n, (0, 0))[1],
                                              b.get(n, (0, 0))[1])):
            ca, sa = a.get(name, (0.0, 0.0))
            cb, sb = b.get(name, (0.0, 0.0))
            total_a += sa
            total_b += sb
            pct = 100.0 * (sb - sa) / sa if sa > 0 else float("nan")
            print("%-22s %10.1f %10.3f %10.1f %10.3f %+10.3f %+7.1f%%"
                  % (name, ca, sa, cb, sb, sb - sa, pct))
        pct = 100.0 * (total_b - total_a) / total_a if total_a else float("nan")
        print("%-22s %10s %10.3f %10s %10.3f %+10.3f %+7.1f%%"
              % ("total", "", total_a, "", total_b, total_b - total_a, pct))


if __name__ == "__main__":
    main()
