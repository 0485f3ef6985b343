#!/usr/bin/env python3
"""Self-test of the benchmark, every workload at its tiny size.

Run from the repository root:  python3 perfbench/selftest.py

Checks, per workload:
  * the same seed run twice gives identical sim_digest and simulated metrics;
  * a different seed gives a different sim_digest;
  * the traced run gives the same sim_digest as the untraced run;
  * every run passes its correctness checks, no protected operation fails,
    and the metrics it prints are
    exactly the ones BENCHMARK.json declares, with the declared units;
  * the traced run prints the cost-model closure line.
Exits non-zero on the first failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SIMULATED = ("qos_delivered", "qos_p50_ms", "qos_p99_ms")


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
           "--scale", "tiny"]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = p.stdout.splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"FAIL {workload} seed {seed} trace {trace}: exit {p.returncode}\n"
                 f"{p.stdout[-3000:]}{p.stderr[-3000:]}")
    result = json.loads(lines[-1])
    record = next(json.loads(l[len("record: "):]) for l in lines if l.startswith("record: "))
    closure = any(l.startswith("closure ") for l in lines)
    return result, record, closure


def expect(cond, what):
    if not cond:
        sys.exit(f"FAIL {what}")
    print(f"ok   {what}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for w in (x["name"] for x in bench["workloads"]):
        a, ra, _ = run(w, 1, 0)
        b, rb, _ = run(w, 1, 0)
        c, rc, _ = run(w, 2, 0)
        t, rt, closure = run(w, 1, 1)
        for res, trace in ((a, 0), (t, 1)):
            expect(res["correct"] and res["attempted"] >= 1 and res["failed"] == 0,
                   f"{w} trace {trace}: correct, attempted {res['attempted']}, none failed")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == declared[trace], f"{w} trace {trace}: metrics match BENCHMARK.json")
        expect(ra["sim_digest"] == rb["sim_digest"], f"{w}: same seed, same digest")
        expect(all(a["metrics"][k] == b["metrics"][k] for k in SIMULATED) and
               (a["attempted"], a["failed"]) == (b["attempted"], b["failed"]),
               f"{w}: same seed, same simulated metrics")
        expect(ra["sim_digest"] != rc["sim_digest"], f"{w}: other seed, other digest")
        expect(ra["sim_digest"] == rt["sim_digest"], f"{w}: traced digest == untraced digest")
        expect(closure, f"{w}: traced run prints the closure line")
    print("selftest passed")


if __name__ == "__main__":
    main()
