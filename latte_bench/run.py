#!/usr/bin/env python3
"""Build the LATTE benchmark from source and run one workload.

Usage (from the repository root):

    python3 latte_bench/run.py --workload squad_long --seed 1 \
        --seconds 30 --trace 0

The benchmark is compiled with CMake into $CARGO_TARGET_DIR (default
.bench_build) under the current directory; build output goes to stderr.
The benchmark binary then prints every metric of BENCHMARK.json, and its last
stdout line is the JSON result.  With --trace 1 the recorded spans are
written to <build dir>/spans/<workload>-seed<N>.trace.json (open it in
Perfetto).  The exit code is the binary's: non-zero when the build fails,
an output check fails or the arguments are malformed.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BINARY = "latte_bench"
RUN_TIMEOUT_S = 175


def build(build_dir):
    """Configures and builds the benchmark; returns the binary."""
    os.makedirs(build_dir, exist_ok=True)
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(build_dir, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4"], check=True,
                   stdout=sys.stderr)
    return os.path.join(build_dir, BINARY)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "latte_bench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"latte_bench: build failed: {err}", file=sys.stderr)
        return 1

    command = [binary, "--workload", args.workload, "--seed", args.seed,
               "--seconds", args.seconds, "--trace", args.trace]
    if args.trace == "1":
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        command += ["--spans", os.path.join(
            spans_dir, f"{args.workload}-seed{args.seed}.trace.json")]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("latte_bench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
