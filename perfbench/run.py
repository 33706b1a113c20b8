#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload compile|execute|serve \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Builds perfbench/main.exe with
dune, runs it with every temporary file (the native backend's C sources
and shared objects) kept under .bench_tmp/ in the checkout, and checks
that the last line it prints is a result whose metrics are exactly the
ones BENCHMARK.json declares for the run kind.  Exits non-zero, without
printing a result, when the checkout holds no sources to build.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=["compile", "execute", "serve"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()

    root = os.getcwd()
    for need in ("dune-project", "lib", "BENCHMARK.json", "perfbench/dune"):
        if not os.path.exists(os.path.join(root, need)):
            die("not a source checkout: %s is missing" % need)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        declared = json.load(f)

    build = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled", "./perfbench/main.exe"],
        cwd=root, timeout=BUILD_TIMEOUT_S, stdout=sys.stderr)
    if build.returncode != 0:
        die("build failed")

    tmp = os.path.join(root, ".bench_tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    cmd = [os.path.join(root, "_build", "default", "perfbench", "main.exe"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    out = proc.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(out[:-1]) + "\n")
    if proc.returncode != 0:
        die("benchmark exited with code %d" % proc.returncode)
    result = json.loads(out[-1])
    kind = "per_layer" if args.trace else "end_to_end"
    want = {m["name"] for m in declared[kind]}
    if set(result["metrics"]) != want:
        die("metrics differ from BENCHMARK.json %s: %s" % (kind, sorted(set(result["metrics"]) ^ want)))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
