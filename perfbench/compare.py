#!/usr/bin/env python3
"""Compare two benchmark result sets, per workload and metric.

    python3 perfbench/compare.py pair.parent.jsonl pair.change.jsonl [--trace]

Both files are written by one interleaved runset.py --parent/--change
run; it refuses sets that were not run interleaved, because a host
whose speed drifts between two sequential sets shows as a change.
Runs pair up by workload and seed.

A workload is worse when any change run is not correct or failed more
operations than its parent run; a gain on it then does not count and
reads "not counted". Then, for each end-to-end metric (per-layer metrics
with --trace), it prints each side's median and quartiles, the
change's pair wins, and a verdict by the rule of the benchmark's
method:

  improved    the change wins at least 9 of 10 pairs (ties count for
              neither) and the medians differ, in the better direction,
              by more than the parent's own spread (Q3 - Q1);
  unresolved  otherwise, when either side's spread (Q3 - Q1 over the
              median) is wider than the metric's bound, unless every
              run of the change reads better than every parent run;
  worse       otherwise, when the change's median is worse than the
              parent's by more than the bound (a share of the parent's
              median);
  unchanged   otherwise.

Per-layer metrics have no bound; their verdict is improved, worse or
unchanged by the pair rule alone. Exit code 1 when any verdict is worse
or unresolved.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load(path, trace):
    runs = {}
    for line in open(path):
        if line.strip():
            r = json.loads(line)
            if not r.get("interleaved"):
                sys.exit(f"{path}: not an interleaved set; run runset.py --parent P --change C")
            if bool(r.get("trace", 0)) == trace:
                runs[(r["workload"], r["seed"])] = r["result"]
    return runs


def correctness(old, new, wl, seeds):
    """Returns why the change's runs of wl are less correct, or None."""
    for s in seeds:
        p, c = old[(wl, s)], new[(wl, s)]
        if not c["correct"]:
            return f"seed {s}: change run not correct"
        if c["failed"] > p["failed"]:
            return f"seed {s}: change failed {c['failed']}, parent {p['failed']}"
    return None


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    return tuple(statistics.quantiles(xs, n=4))


def verdict(parent, change, better, bound):
    """parent and change are lists of values paired by index."""
    sign = 1 if better == "higher" else -1
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    if wins >= 0.9 * len(parent) and sign * (cm - pm) > (p3 - p1):
        return "improved", wins
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if bound is not None:
        spread = max((p3 - p1) / abs(pm) if pm else 0, (c3 - c1) / abs(cm) if cm else 0)
        if spread > bound and not all_better:
            return "unresolved", wins
        if -sign * (cm - pm) > bound * abs(pm):
            return "worse", wins
        return "unchanged", wins
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    if losses >= 0.9 * len(parent) and -sign * (cm - pm) > (p3 - p1):
        return "worse", wins
    return "unchanged", wins


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--trace", action="store_true", help="compare traced runs' per-layer metrics")
    a = ap.parse_args()
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    metrics = bench["per_layer"] if a.trace else bench["end_to_end"]
    old, new = load(a.parent, a.trace), load(a.change, a.trace)
    bad = 0
    for wl in [w["name"] for w in bench["workloads"]]:
        seeds = sorted(s for (w, s) in old if w == wl and (w, s) in new)
        if not seeds:
            continue
        print(f"{wl}: {len(seeds)} pairs")
        why = correctness(old, new, wl, seeds)
        if why:
            bad += 1
            print(f"  correctness: worse ({why})")
        print(f"  {'metric':34s} {'parent median [Q1, Q3]':>36s} {'change median [Q1, Q3]':>36s}  wins  verdict")
        for m in metrics:
            p = [old[(wl, s)]["metrics"][m["name"]]["value"] for s in seeds]
            c = [new[(wl, s)]["metrics"][m["name"]]["value"] for s in seeds]
            v, wins = verdict(p, c, m["better"], m.get("bound"))
            if why and v == "improved":
                v = "not counted"
            bad += v in ("worse", "unresolved")
            pq, cq = quartiles(p), quartiles(c)
            print(f"  {m['name']:34s} {pq[1]:12.5g} [{pq[0]:10.5g}, {pq[2]:10.5g}] "
                  f"{cq[1]:12.5g} [{cq[0]:10.5g}, {cq[2]:10.5g}]  {wins:2d}/{len(seeds):<2d} {v}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
