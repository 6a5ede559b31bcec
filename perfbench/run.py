#!/usr/bin/env python3
"""Builds the checker benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload fig7_rf --seed 1 --seconds 20 --trace 0

The first run configures and builds perfbench/ (the cdsspec library from
src/ plus the cdsbench runner) into $CARGO_TARGET_DIR, or .bench_build when
that is unset; later runs only re-check the build. Build output goes to
standard error, so the last line of standard output is the runner's JSON
result. Exits non-zero without a result when the sources or the toolchain
are missing.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig7_rf", "fig7_schedule", "fig7_jobs4", "fuzz_oracles")


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures (once) and builds the runner; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: checker sources (src/) not found next to perfbench/")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "--target", "cdsbench", "-j4"],
                   stdout=sys.stderr, check=True)
    return os.path.join(out, "cdsbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--smoke", action="store_true",
                    help="reduced-size inputs (the benchmark's own tests)")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"perfbench: build failed: {e}")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.smoke:
        cmd.append("--smoke")
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
