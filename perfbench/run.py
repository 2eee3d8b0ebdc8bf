#!/usr/bin/env python3
"""Builds the benchmark program from this checkout's sources and runs it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload suite_cold --seed 1 --seconds 20 --trace 0

The program is configured once into .bench_build/perfbench (Release) and
rebuilt incrementally on every call; build output goes to stderr, so the
last line of stdout is the program's JSON result. Every other argument is
passed through to the program (see perfbench/main.cpp); a traced run's
spans are written to .bench_build/traces/. Each call gets its
own scratch directory under .bench_build for the trace-cache disk tier and
the serve socket, removed when the program exits.

    python3 perfbench/run.py --emit-reference perfbench/reference_digests.txt

rewrites the stored output digests; do that only in a change that alters
the modelled design on purpose.
"""
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(".bench_build", "perfbench")
REFERENCE = os.path.join("perfbench", "reference_digests.txt")
TRACES = os.path.join(".bench_build", "traces")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("no simulator sources (src/) in " + ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step failed: %s" % e)
        if r.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def main():
    os.chdir(ROOT)
    build()
    scratch = os.path.join(".bench_build", "run-%d" % os.getpid())
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    cmd = [os.path.join(BUILD, "perfbench"), "--scratch", scratch]
    if "--emit-reference" not in sys.argv:
        cmd += ["--reference", REFERENCE]
    args = sys.argv[1:]
    cmd += args
    if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]:
        # Spans of traced runs are kept for inspection after the run.
        os.makedirs(TRACES, exist_ok=True)
        tag = "-".join(args[args.index(f) + 1] for f in ("--workload", "--seed")
                       if f in args[:-1])
        cmd += ["--trace-out", os.path.join(TRACES, tag + ".jsonl")]
    try:
        sys.stdout.flush()
        r = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
        code = r.returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        code = 3
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    sys.exit(code if code >= 0 else 128 - code)


if __name__ == "__main__":
    main()
