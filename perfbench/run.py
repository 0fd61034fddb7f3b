#!/usr/bin/env python3
"""Builds the cisqp benchmark from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload hot_serve --seed 1 --seconds 12 --trace 0

The benchmark is a CMake package of its own (perfbench/CMakeLists.txt) that
compiles the libraries under src/; it is built into .bench_build/perfbench
in the current directory. The last line of standard output is the run's
JSON result. Exits non-zero, without a result, when the sources are missing,
the build fails or the run fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def source_id():
    """The git commit when there is one, else a digest of src/."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        lines = out.stdout.split()
        # Only a repository rooted here names this tree's commit.
        if (out.returncode == 0 and len(lines) == 2 and
                os.path.realpath(lines[0]) == os.path.realpath(ROOT)):
            return lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", build_dir],
             ["cmake", "--build", build_dir, "-j", jobs,
              "--target", "cisqp_perfbench"]]
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "cisqp_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no cisqp sources next to the benchmark (src/CMakeLists.txt)")
    build_dir = os.path.join(os.getcwd(), ".bench_build", "perfbench")
    binary = build(build_dir)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--commit", source_id()]
    if args.trace == "1":
        cmd += ["--spans", os.path.join(
            build_dir, "spans_%s_%d.jsonl" % (args.workload, args.seed))]
    try:
        run = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
