#!/usr/bin/env python3
"""Build and run the dgr end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload degree-powerlaw --seed 1 \
        --seconds 30 --trace 0

Configures and builds perfbench/ (which compiles the library from src/) in
Release mode, then runs it. Build output goes to stderr; the last
stdout line is the benchmark's JSON result. The build directory is
$CARGO_TARGET_DIR when set, else .bench_build. Extra arguments (such as
--smoke) are passed through to the benchmark program.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the dgr sources (src/) are missing; run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def main():
    build_dir = os.path.abspath(
        os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    exe = build(build_dir)
    sys.stdout.flush()
    proc = subprocess.run([exe] + sys.argv[1:], cwd=ROOT)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
