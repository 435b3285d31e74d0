#!/usr/bin/env python3
"""Same-host A/B comparison of two checkouts with the repository benchmark.

    python3 perfbench/ab.py PARENT_DIR CHANGE_DIR --workload tenant-stream --pairs 10

PARENT_DIR and CHANGE_DIR are two checkouts (for example made with
`git worktree add` or `git archive`), each with its own perfbench/. The
script runs `python3 perfbench/run.py` in both, tracing off, for the
run length BENCHMARK.json gives (which must be the same on both sides),
one pair per seed, alternating which side runs first, and prints each
metric's median and quartiles per side, how many pairs the change won,
and the parent's own spread. It refuses to compare results whose host stamps differ in
anything but the source hash and commit: numbers from different hosts,
CPU counts or Go versions are not comparable.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run(checkout, workload, seed, seconds):
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        sys.exit(f"ab: {checkout} seed {seed} failed:\n{out.stderr[-4000:]}")
    host = json.loads(lines[-2].removeprefix("host "))
    return host, json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1000)
    args = ap.parse_args()
    bench = json.load(open(os.path.join(args.change, "BENCHMARK.json")))
    parent_bench = json.load(open(os.path.join(args.parent, "BENCHMARK.json")))
    if parent_bench["run_seconds"] != bench["run_seconds"]:
        sys.exit("ab: the two checkouts' BENCHMARK.json give different run_seconds")
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    vals = {"parent": {}, "change": {}}
    stamps = set()
    wins = {}
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = [("parent", args.parent), ("change", args.change)]
        if i % 2:
            order.reverse()
        got = {}
        for side, checkout in order:
            host, res = run(checkout, args.workload, seed, bench["run_seconds"])
            if not res["correct"]:
                sys.exit(f"ab: {side} seed {seed}: output check failed")
            stamps.add(tuple(sorted((k, v) for k, v in host.items() if k not in ("source", "commit"))))
            got[side] = {k: v["value"] for k, v in res["metrics"].items()}
            for k, v in got[side].items():
                vals[side].setdefault(k, []).append(v)
        for k, p in got["parent"].items():
            c = got["change"].get(k)
            if c is not None and c != p:
                won = c < p if better.get(k) == "lower" else c > p
                wins[k] = wins.get(k, 0) + (1 if won else 0)
        print(f"pair {i + 1}/{args.pairs} seed {seed} done", file=sys.stderr)
    if len(stamps) != 1:
        sys.exit(f"ab: INVALID — results come from different hosts: {sorted(stamps)}")
    print(f"{'metric':34s} {'parent median [q1, q3]':>36s} {'change median [q1, q3]':>36s} {'wins':>6s} {'parent iqr':>10s}")
    for k in sorted(vals["parent"]):
        p, c = vals["parent"][k], vals["change"].get(k, [])
        if len(p) < 2 or len(c) < 2:
            continue
        qp, qc = statistics.quantiles(p, n=4), statistics.quantiles(c, n=4)
        print(f"{k:34s} {statistics.median(p):12.5g} [{qp[0]:10.5g}, {qp[2]:10.5g}] "
              f"{statistics.median(c):12.5g} [{qc[0]:10.5g}, {qc[2]:10.5g}] "
              f"{wins.get(k, 0):3d}/{args.pairs:<2d} {qp[2] - qp[0]:10.4g}")


if __name__ == "__main__":
    main()
