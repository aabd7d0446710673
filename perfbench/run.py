#!/usr/bin/env python3
"""Build and run one LIBRA benchmark workload (see perfbench/README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload warm-rerun --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Builds perfbench/ (and the library it includes from the repository
sources) into $CARGO_TARGET_DIR or .bench_build, runs the workload in
its own process, and prints the result as the last line of stdout:
{"correct", "attempted", "failed", "metrics"}. Exits non-zero, without
a result, when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["cold-sweep", "warm-rerun", "serve-mixed", "explore-sharded"]
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_root, targets):
    """Configure once, then build @p targets; a no-op when up to date."""
    build_dir = os.path.join(build_root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "a") as log:
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.call(configure, stdout=log, stderr=log) != 0:
                # Leave no half-configured tree behind for the next run.
                shutil.rmtree(build_dir, ignore_errors=True)
                fail("cmake configure failed (is this a LIBRA checkout?)")
        cmd = ["cmake", "--build", build_dir, "-j", "4", "--target"] + targets
        if subprocess.call(cmd, stdout=log, stderr=log) != 0:
            fail("build failed; see " + log_path)
    return build_dir


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the generator self-test")
    args = parser.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if args.selftest:
        build_dir = build(build_root, ["perfbench_selftest"])
        sys.exit(subprocess.call(
            [os.path.join(build_dir, "perfbench_selftest")]))
    if not args.workload:
        parser.error("--workload is required")

    build_dir = build(build_root, ["perfbench", "libra_cli"])
    work = os.path.join(build_root, "work",
                        "%s-%d" % (args.workload, os.getpid()))
    trace_out = os.path.join(build_root, "trace-%s-%d.json"
                             % (args.workload, args.seed))
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work, "--trace-out", trace_out]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        fail("workload exited with code %d" % proc.returncode)

    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("workload printed no result")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
