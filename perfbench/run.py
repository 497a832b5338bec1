#!/usr/bin/env python3
"""Builds the benchmark on first use and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The repository's libraries and the benchmark program are compiled in Release
into .bench_build/ at the repository root (an up-to-date tree rebuilds in about
a second).  Build output is shown on standard error only when a step fails;
the program's standard output is passed through unchanged, so its last line
is the result JSON.  Run data and traces go to .bench_out/.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")


def build():
    jobs = str(os.cpu_count() or 1)
    steps = []
    generated = [os.path.join(BUILD, f) for f in ("Makefile", "build.ninja")]
    if not any(os.path.exists(f) for f in generated):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", "larp_perfbench"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            print(f"perfbench: build step failed ({proc.returncode}): {' '.join(cmd)}",
                  file=sys.stderr)
            return False
    return True


def main():
    if not build():
        return 2
    binary = os.path.join(BUILD, "larp_perfbench")
    return subprocess.run([binary, *sys.argv[1:], "--out", OUT]).returncode


if __name__ == "__main__":
    sys.exit(main())
