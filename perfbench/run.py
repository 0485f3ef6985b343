#!/usr/bin/env python3
"""Builds and runs the simulator benchmark for one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload city_fanin --seed 1 --seconds 10 --trace 0

The benchmark is compiled from source into .bench_build/perfbench (or the
directory named by CARGO_TARGET_DIR, relative to the repository root), then
the perfbench binary runs the workload. This wrapper stamps the host
fingerprint (nproc, CPU model, compiler, build type, the commit or source
digest measured) on the run, saves the full record under
<build>/results/, and leaves the binary's result JSON as the last line of
standard output. Any build failure or failed check exits non-zero.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("city_fanin", "rtcorba_mix", "adaptive_reservation")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(bdir):
    """Configures once, then rebuilds incrementally. Returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to perfbench/", 2)
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    with open(log_path, "w") as log:
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                return None, log_path
        cmd = ["cmake", "--build", bdir, "--target", "perfbench", "-j", "4"]
        if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
            return None, log_path
    return os.path.join(bdir, "perfbench"), log_path


def source_digest():
    """sha256 over the library and benchmark sources, in path order."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = ap.parse_args()

    bdir = build_dir()
    binary, log_path = build(bdir)
    if binary is None:
        with open(log_path) as f:
            sys.stderr.write("".join(f.readlines()[-40:]))
        fail(f"build failed (full log: {log_path})")

    host = {"commit": commit(), "source_sha256": source_digest()}
    print(f"host: commit={host['commit']} source_sha256={host['source_sha256']}", flush=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale]
    if args.trace:
        spans_dir = os.path.join(bdir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out", os.path.join(spans_dir, f"{args.workload}.tsv")]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    record = {}
    for line in lines:
        if line.startswith("fingerprint: "):
            host["binary"] = line[len("fingerprint: "):]
        elif line.startswith("record: "):
            record = json.loads(line[len("record: "):])
    results_dir = os.path.join(bdir, "results")
    os.makedirs(results_dir, exist_ok=True)
    out = os.path.join(results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out, "w") as f:
        json.dump({"host": host, "record": record, "exit_code": proc.returncode}, f, indent=1)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
