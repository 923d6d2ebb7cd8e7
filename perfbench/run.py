#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload dashboard|etl \
        --seed N --seconds S --trace 0|1

Configures and builds perfbench/ (the engine libraries from src/ plus the
benchmark program) into .bench_build/perfbench with CMake, then runs it. The
build is incremental: after the first run it only checks that the binary is
up to date. Build output goes to standard error, so the last line of standard
output is the program's result object. Exits non-zero without a result when
the sources are missing or the build fails.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Sources the benchmark compiles; all must be present.
REQUIRED = ["src/CMakeLists.txt", "bench/workloads/star_schema.cc",
            "perfbench/CMakeLists.txt"]
PROGRAM_TIMEOUT_S = 175


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "-j", jobs], stdout=sys.stderr,
                   check=True)


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def source_digest():
    """SHA-256 over the sources the benchmark builds (identifies the code
    when the checkout carries no git metadata)."""
    h = hashlib.sha256()
    for top in ("src", "bench/workloads", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["dashboard", "etl"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    missing = [f for f in REQUIRED if not os.path.exists(os.path.join(ROOT, f))]
    if missing:
        fail("missing sources: " + ", ".join(missing))
    out = build_dir()
    try:
        build(out)
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)

    cmd = [os.path.join(out, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out, "--commit", commit(),
           "--source-digest", source_digest()]
    try:
        r = subprocess.run(cmd, timeout=PROGRAM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark program exceeded %d s" % PROGRAM_TIMEOUT_S)
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
