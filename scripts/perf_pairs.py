#!/usr/bin/env python3
"""Compares two source trees on the perfbench workloads in interleaved pairs.

Usage:

    scripts/perf_pairs.py PARENT_TREE CHANGE_TREE [--pairs 10] [--first-seed 1]
        [--seconds 30] [--trace 0] [--workloads a,b] [--target-dir DIR]

Each tree is built with its own perfbench/run.py build step (Release, into
DIR/parent and DIR/change when --target-dir is given, else each tree's
.bench_build/). Then, per workload, pair k runs seed first-seed + k on the
parent and the change back to back, alternating which side goes first so
slow drift on a shared host hits both sides alike. The metric list and
each metric's better direction come from the change tree's
BENCHMARK.json: its end_to_end metrics at --trace 0, per_layer at 1.

Printed per workload and metric: each side's median and quartiles, how
many pairs the change won, the median gap, whether that gap beats the
parent's interquartile range (a gain is claimed only when the change wins
at least 9 of 10 pairs and its median gap exceeds the parent's IQR), and
in how many pairs both sides printed the same value (deterministic
metrics such as qos_p99_ms must be equal in every pair). Also
printed: whether sim_digest matched in every pair, and the runs that
failed their own checks. Exits 1 if any run failed or a digest differed.
"""

import argparse
import importlib.util
import json
import os
import statistics
import subprocess
import sys


def load_run_py(tree):
    sys.dont_write_bytecode = True  # leave nothing behind in the tree's perfbench/
    path = os.path.join(tree, "perfbench", "run.py")
    spec = importlib.util.spec_from_file_location(f"perfbench_run_{abs(hash(tree))}", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def build(tree, target_dir):
    """Builds perfbench in `tree` through its own run.py; returns the binary."""
    if target_dir:
        os.environ["CARGO_TARGET_DIR"] = target_dir
    else:
        os.environ.pop("CARGO_TARGET_DIR", None)
    mod = load_run_py(tree)
    binary, log_path = mod.build(mod.build_dir())
    if binary is None:
        sys.exit(f"perf_pairs: build of {tree} failed (log: {log_path})")
    return binary


def run_once(binary, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    record = {}
    for line in proc.stdout.splitlines():
        if line.startswith("record: "):
            record = json.loads(line[len("record: "):])
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
    try:
        result = json.loads(last)
    except json.JSONDecodeError:
        result = {}
    ok = proc.returncode == 0 and result.get("correct") is True and result.get("failed") == 0
    metrics = {k: v["value"] for k, v in result.get("metrics", {}).items()}
    return {"ok": ok, "metrics": metrics, "digest": record.get("sim_digest")}


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def report(workload, metrics, runs):
    print(f"\n== {workload}: {len(runs)} pairs")
    print(f"{'metric':<24}{'parent median [q1, q3]':<42}{'change median [q1, q3]':<42}"
          f"{'wins':<7}{'gap':>11}{'parent IQR':>12}  gap > IQR  equal")
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        pairs = [(p["metrics"].get(name), c["metrics"].get(name)) for p, c in runs]
        pairs = [(p, c) for p, c in pairs if p is not None and c is not None]
        if not pairs:
            continue
        par = sorted(p for p, _ in pairs)
        chg = sorted(c for _, c in pairs)
        pq1, pmed, pq3 = quartiles(par)
        cq1, cmed, cq3 = quartiles(chg)
        wins = sum(1 for p, c in pairs if (c < p if lower else c > p))
        gap = cmed - pmed
        improved = gap < 0 if lower else gap > 0
        beats = improved and abs(gap) > (pq3 - pq1)
        equal = sum(1 for p, c in pairs if p == c)
        print(f"{name:<24}{f'{pmed:.6g} [{pq1:.6g}, {pq3:.6g}]':<42}"
              f"{f'{cmed:.6g} [{cq1:.6g}, {cq3:.6g}]':<42}{f'{wins}/{len(pairs)}':<7}"
              f"{gap:>11.4g}{pq3 - pq1:>12.4g}  {'yes' if beats else 'no':<9}  "
              f"{equal}/{len(pairs)}")
    same = all(p["digest"] == c["digest"] for p, c in runs)
    failed = sum(1 for p, c in runs for r in (p, c) if not r["ok"])
    print(f"sim_digest identical in every pair: {'yes' if same else 'NO'}; failed runs: {failed}")
    return same and failed == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workloads", default="",
                    help="comma-separated subset (default: every BENCHMARK.json workload)")
    ap.add_argument("--target-dir", default="",
                    help="build under DIR/parent and DIR/change instead of each tree")
    args = ap.parse_args()

    parent, change = os.path.abspath(args.parent), os.path.abspath(args.change)
    with open(os.path.join(change, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")

    target = os.path.abspath(args.target_dir) if args.target_dir else ""
    binaries = {
        "parent": build(parent, os.path.join(target, "parent") if target else ""),
        "change": build(change, os.path.join(target, "change") if target else ""),
    }

    key = "run_s" if args.trace == 0 else "trace.run_s"
    all_ok = True
    for workload in workloads:
        runs = []
        for k in range(args.pairs):
            seed = args.first_seed + k
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            out = {}
            for side in order:
                out[side] = run_once(binaries[side], workload, seed, args.seconds, args.trace)
            runs.append((out["parent"], out["change"]))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{side} {key}={out[side]['metrics'].get(key, float('nan')):.4f}"
                for side in order), flush=True)
        all_ok = report(workload, metrics, runs) and all_ok
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
