#!/usr/bin/env python3
"""Builds the freshsel benchmark and runs one workload.

Usage, from the root of the repo:

    python3 perfbench/run.py --workload batch_select|serve_hot|serve_mixed \
        --seed N --seconds S --trace 0|1 [--smoke]

Each run configures and builds `freshsel` and the benchmark program under
`.bench_build/perfbench`; only the first builds from scratch. Build output
goes to stderr; the last line of stdout is the JSON result.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(".bench_build", "perfbench")
WORK = os.path.join(".bench_build", "perfbench-run")


def source_digest():
    """Content hash of the product sources (the checkout may lack .git)."""
    digest = hashlib.sha256()
    for top in ("src", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in sorted(files):
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "none"


def build():
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["batch_select", "serve_hot", "serve_mixed"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny scenario, for the self-test")
    args = parser.parse_args()

    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            sys.exit("perfbench: %s not found next to perfbench/; run from a "
                     "full checkout of the repo" % needed)
    # Relative paths keep unix socket paths short wherever the checkout is.
    os.chdir(ROOT)
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        sys.exit("perfbench: build failed: %s" % error)
    os.makedirs(WORK, exist_ok=True)
    argv = [os.path.join(BUILD, "perfbench"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", args.trace,
            "--freshsel", os.path.join(BUILD, "freshsel", "src", "cli",
                                       "freshsel"),
            "--work-root", WORK,
            "--label", "git_commit=" + git_commit(),
            "--label", "source_digest=" + source_digest()]
    if args.smoke:
        argv.append("--smoke")
    sys.stdout.flush()
    os.execv(argv[0], argv)


if __name__ == "__main__":
    main()
