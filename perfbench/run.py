#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload campus --seed 1 --seconds 10 --trace 0

The first call configures and builds perfbench/ (which builds ../src) into
.bench_build/; later calls only re-check the build. The last line of stdout
is the benchmark's JSON result. Build output goes to stderr. A traced run
(--trace 1) also writes its spans to .bench_build/spans/.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def parse(argv):
    keys = {"--workload", "--seed", "--seconds", "--trace"}
    if len(argv) % 2 != 0:
        return None
    args = dict(zip(argv[0::2], argv[1::2]))
    if set(args) != keys:
        return None
    return args


def run_step(cmd, timeout, env=None):
    """Runs cmd with its stdout sent to stderr; returns its exit code."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, env=env,
                              timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        print(f"timed out after {timeout} s: {' '.join(cmd)}", file=sys.stderr)
        return 1


def build():
    configure = ["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        if run_step(configure, BUILD_TIMEOUT_S) != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return run_step(["cmake", "--build", BUILD, "--target", "perfbench",
                     "-j", jobs], BUILD_TIMEOUT_S) == 0


def main():
    args = parse(sys.argv[1:])
    if args is None:
        print("usage: run.py --workload <name> --seed <n> --seconds <s> "
              "--trace <0|1>", file=sys.stderr)
        return 2
    if not build():
        print("benchmark build failed", file=sys.stderr)
        return 1
    cmd = [BINARY]
    for key in ("--workload", "--seed", "--seconds", "--trace"):
        cmd += [key, args[key]]
    if args["--trace"] == "1":
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--trace-file", os.path.join(
            spans, f"{args['--workload']}-seed{args['--seed']}.json")]
    # The benchmark pins every program knob itself; DMN_* variables from the
    # caller's environment must not reach the program.
    env = {k: v for k, v in os.environ.items() if not k.startswith("DMN_")}
    try:
        return subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"benchmark timed out after {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
