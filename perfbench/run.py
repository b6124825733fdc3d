#!/usr/bin/env python3
"""Build and run the ebs host-performance benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <paper_suite|team_scale|pipeline_opts>
                             --seed <n> --seconds <s> --trace <0|1>

Configures and builds perfbench/ (which compiles ../src) into
.bench_build/perfbench, then runs the benchmark binary with the same
arguments. The binary's last stdout line is the JSON result. Build output
goes to stderr only when the build fails. `--selftest` builds and runs the
benchmark checker's own test instead.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 175


def run_quiet(cmd):
    """Run a build step; on failure echo its output to stderr."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.stderr.write("perfbench: step failed: %s\n" % " ".join(cmd))
    return proc.returncode == 0


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: no ebs source tree next to %s\n" % HERE)
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        if not run_quiet(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"] + generator):
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    return run_quiet(["cmake", "--build", BUILD, "-j", jobs])


def main(argv):
    if not build():
        return 1
    if argv == ["--selftest"]:
        cmd = [os.path.join(BUILD, "perfbench_checker_test")]
    else:
        cmd = [os.path.join(BUILD, "perfbench")] + argv
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
