#!/usr/bin/env python3
"""Serving benchmark entry point.

    python3 servebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds servebench from the sources of the checkout it sits in, prepares the
trained models once (the first run trains them, which takes minutes), then
runs one workload and passes its output through: one line per metric and
check, and the result as one JSON object on the last line.  Everything it
writes goes under .bench_build/ at the root of the checkout.  Workloads and
metrics are described in servebench/README.md.
"""
import argparse
import os
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    out_dir = os.path.join(os.path.dirname(bench_dir), ".bench_build")
    build_dir = os.path.join(out_dir, "servebench")
    cache_dir = os.path.join(out_dir, "model_cache")
    trace_dir = os.path.join(out_dir, "traces")
    binary = os.path.join(build_dir, "servebench")

    def step(what, cmd):
        # Build and preparation logs go to stderr: stdout carries the result.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            print("servebench: %s failed" % what, file=sys.stderr)
            sys.exit(1)

    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        step("configure", ["cmake", "-S", bench_dir, "-B", build_dir,
                           "-DCMAKE_BUILD_TYPE=Release"])
    step("build", ["cmake", "--build", build_dir, "--target", "servebench",
                   "-j", str(os.cpu_count() or 1)])
    step("model preparation", [binary, "--prepare", "--cache", cache_dir])

    os.makedirs(trace_dir, exist_ok=True)
    trace_out = os.path.join(
        trace_dir, "%s-seed%d.json" % (args.workload, args.seed))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--cache", cache_dir, "--trace-out", trace_out]
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
