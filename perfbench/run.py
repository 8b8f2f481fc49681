#!/usr/bin/env python3
"""Run one benchmark workload from the root of a source checkout.

    python3 perfbench/run.py --workload trace_churn --seed 1 \
        --seconds 10 --trace 0

Builds the repository's sources and the perfbench program in Release
(cmake, into .bench_build/) on first use, then runs one workload in its
own process. The program prints a report and, as the last line of
stdout, one JSON object {"correct", "attempted", "failed", "metrics"}.
Exits non-zero, printing no result, when the sources are missing or do
not build; exits 1 when an output check failed.
"""

import argparse
import fcntl
import glob
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("trace_churn", "live_fleet", "freon_emergency")
BUILD_DIR = os.path.join(".bench_build", "perfbench")
RUN_ROOT = ".bench_run"
# Beyond --seconds, a pass spends up to about 15 s on set-up, warm-up
# and checks; --trace 1 makes two passes.
PASS_SLACK_S = 60


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once, then bring the two binaries up to date."""
    for needed in ("src/CMakeLists.txt", "perfbench/CMakeLists.txt"):
        if not os.path.isfile(needed):
            fail("run from the root of a source checkout (missing %s)"
                 % needed)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            configure = ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                      "mercury_solverd", "-j", str(os.cpu_count() or 1)])
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT):
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                fail("build failed (%s)" % log_path)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    binary = os.path.join(BUILD_DIR, "perfbench")
    solverd = os.path.join(BUILD_DIR, "mercury", "apps", "mercury_solverd")
    run_dir = os.path.join(RUN_ROOT, "%s-%d-%d" % (args.workload, args.seed,
                                                     os.getpid()))
    os.makedirs(run_dir, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--solverd", solverd, "--run-dir", run_dir]
    # A process group of its own: on a timeout or an abort the whole
    # group (perfbench and any solverd it spawned) is killed and waited
    # for.
    child = subprocess.Popen(command, start_new_session=True)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(3))
    code = 3
    try:
        code = child.wait(timeout=(1 + args.trace) *
                          (args.seconds + PASS_SLACK_S))
    except BaseException:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
    finally:
        for segment in glob.glob("/dev/shm/perfbench.%d.*" % child.pid):
            os.unlink(segment)
        spans = os.path.join(run_dir, "spans.csv")
        if os.path.isfile(spans):
            os.replace(spans, os.path.join(
                RUN_ROOT, "spans-%s-%d.csv" % (args.workload, args.seed)))
        if code == 0:
            shutil.rmtree(run_dir, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
