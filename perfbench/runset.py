#!/usr/bin/env python3
"""Run the benchmark over several seeds and collect result sets.

Run from the repository root. One checkout, one result set (for
measuring the benchmark's spread):

    python3 perfbench/runset.py --out results.jsonl --seeds 1-10 \
        [--workloads serve-hot,serve-cold] [--seconds N] [--trace 0|1]

Two checkouts, run interleaved (for compare.py):

    python3 perfbench/runset.py --parent ../parent --change . \
        --out pair --seeds 1-10

In the second form each workload and seed runs once in each checkout,
back to back, and which side runs first alternates from one pair to
the next, so a host that speeds up or slows down during the sets
weighs on both sides alike. It writes pair.parent.jsonl and
pair.change.jsonl. The benchmark is read from the change checkout's
BENCHMARK.json and each run starts in its own checkout, which builds
its own program.

Each line of an output file is one run: {"workload": ..., "seed": ...,
"trace": ..., "interleaved": ..., "result": <the run's JSON result>}.
Afterwards it prints, per workload and metric, the median and the
spread (distance between the first and third quartile as a share of
the median) next to the metric's bound from BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def run_one(bench, checkout, wl, seed, seconds, trace):
    cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", str(trace)]
    res = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if res.returncode != 0:
        sys.stderr.write(res.stderr)
        sys.exit(f"{checkout}: {wl} seed {seed}: exit {res.returncode}")
    return json.loads(res.stdout.strip().splitlines()[-1])


def print_spreads(bench, tag, runs):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for wl, results in runs.items():
        if len(results) < 2:
            continue
        print(f"\n{tag}{wl} ({len(results)} runs)")
        for name, bound in bounds.items():
            med, sp = spread([r["metrics"][name]["value"] for r in results])
            flag = "" if sp <= bound / 3 else "  <-- spread above bound/3"
            print(f"  {name:16s} median {med:12.6g}  spread {sp:7.2%}  bound {bound:.0%}{flag}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", required=True, help="result file, or the file prefix with --parent/--change")
    ap.add_argument("--parent", help="parent checkout; with --change, runs both interleaved")
    ap.add_argument("--change", help="change checkout")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    a = ap.parse_args()
    if bool(a.parent) != bool(a.change):
        sys.exit("--parent and --change go together")
    sides = {"parent": os.path.abspath(a.parent), "change": os.path.abspath(a.change)} if a.parent else {"": ROOT}
    bench = json.load(open(os.path.join(sides.get("change", ROOT), "BENCHMARK.json")))
    workloads = a.workloads.split(",") if a.workloads else [w["name"] for w in bench["workloads"]]
    seconds = a.seconds or bench["run_seconds"]
    paths = {side: f"{a.out}.{side}.jsonl" if side else a.out for side in sides}
    outs = {side: open(path, "a") for side, path in paths.items()}
    runs = {side: {} for side in sides}
    for k, seed in enumerate(seeds_of(a.seeds)):
        for w, wl in enumerate(workloads):
            order = list(sides)
            if (k + w) % 2:
                order.reverse()
            for side in order:
                result = run_one(bench, sides[side], wl, seed, seconds, a.trace)
                line = {"workload": wl, "seed": seed, "trace": a.trace,
                        "interleaved": len(sides) == 2, "result": result}
                outs[side].write(json.dumps(line) + "\n")
                outs[side].flush()
                runs[side].setdefault(wl, []).append(result)
                print(f"{side + ': ' if side else ''}{wl} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}", flush=True)
    for f in outs.values():
        f.close()
    if not a.trace:
        for side in sides:
            print_spreads(bench, f"{side}: " if side else "", runs[side])


if __name__ == "__main__":
    main()
