#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload errsweep --seed 1 --seconds 20 --trace 0

Configures perfbench/ as a standalone CMake project (Release) in
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable is
unset, builds the tmemo_perfbench target, and runs it. Build output goes to
stderr; the benchmark's stdout passes through, and its last line is the JSON
result. The exit code is the benchmark's: 0 only when every correctness gate
passed. See perfbench/README.md.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("errsweep", "vossweep", "observed", "fabric")
# The benchmark itself stays well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def git_describe():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "describe", "--always", "--dirty", "--tags"],
            capture_output=True, text=True, timeout=30, check=True)
        return out.stdout.strip() or "unknown"
    except (subprocess.SubprocessError, OSError):
        return "unknown"


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "tmemo_perfbench", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "tmemo_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: the simulator sources (src/) are not next to "
              "perfbench/; run from a full checkout", file=sys.stderr)
        return 2

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    command = [binary,
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--data", os.path.join(HERE, "data"),
               "--out", os.path.abspath(".bench_out"),
               "--git-describe", git_describe()]
    sys.stdout.flush()
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
