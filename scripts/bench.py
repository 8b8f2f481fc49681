#!/usr/bin/env python3
"""Build the gated benchmarks in Release, run them, and judge the gates.

    python3 scripts/bench.py

Takes no arguments. Builds the five gated bench programs in Release
into .bench_build/bench, runs each with REPETITIONS randomly
interleaved repetitions, and writes Google Benchmark's aggregates
(mean, median, stddev and cv of every row) to
BENCH_{micro,scale,metrics,rpc,replica}.json at the repo root, with the
build type and git commit in each file's context. Every gate reads
medians. Prints one verdict per gate, then exits 0 when every gate
passed or was skipped, 1 when a gate failed, and 2 when a build, a run
or a row a gate needs is missing.
"""

import json
import os
import shutil
import subprocess
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(".bench_build", "bench")
BUILD_TYPE = "Release"
BENCHES = {
    "micro": "bench_micro_mercury",
    "scale": "bench_scale_fleet",
    "metrics": "bench_metrics",
    "rpc": "bench_rpc",
    "replica": "bench_replica",
}
REPETITIONS = 10
# Seconds, as a bare number: Google Benchmark 1.7 rejects "0.1s".
MIN_TIME = "0.1"

SHM_BUDGET_NS = 500.0          # fails above
QUIESCENCE_SPEEDUP_MIN = 10.0  # fails below
COUNTER_INC_CEILING_NS = 50.0  # fails at or above
RPC_SPEEDUP_MIN = 2.0          # fails below
RPC_MIN_CORES = 4
OVERHEAD_MAX = 0.05            # WAL and replicated; fails above
REPLICATED_MIN_CORES = 2

NS_PER_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


class Missing(Exception):
    """A report, row or aggregate a gate needs is absent."""


def rpc_row(workers, batched):
    return "BM_RequestPlane/workers:%d/batched:%d/manual_time" % (
        workers, batched)


def replica_row(mode):
    return "BM_Replica/%s/iterations:150/real_time" % mode


def aggregate(reports, key, row, name):
    report = reports.get(key)
    if report is None:
        raise Missing("BENCH_%s.json (no build or run)" % key)
    for entry in report.get("benchmarks", []):
        if entry.get("run_name") == row and \
                entry.get("aggregate_name") == name:
            return entry
    raise Missing("%s of %s in BENCH_%s.json" % (name, row, key))


def measure(reports, key, row, field="real_time"):
    """(median, cv) of a row's real time in ns or of a user counter."""
    median = aggregate(reports, key, row, "median")
    cv = aggregate(reports, key, row, "cv")
    if field not in median or field not in cv:
        raise Missing("%s of %s in BENCH_%s.json" % (field, row, key))
    scale = NS_PER_UNIT[median["time_unit"]] if field == "real_time" else 1
    return median[field] * scale, cv[field]


def cores(reports, key):
    return reports[key]["context"]["num_cpus"]


def shown(median_cv, unit="ns"):
    value, cv = median_cv
    if unit == "ns":
        for bigger, scale in (("ms", 1e6), ("us", 1e3)):
            if value >= scale:
                value, unit = value / scale, bigger
                break
    return "%.1f %s (cv %.1f%%)" % (value, unit, cv * 100)


def gate_shm(reports):
    shm = measure(reports, "micro", "BM_ReadSensorShm")
    verdict = "FAIL" if shm[0] > SHM_BUDGET_NS else "PASS"
    return verdict, "fails above %g ns" % SHM_BUDGET_NS, "read " + shown(shm)


def gate_quiescence(reports):
    off = measure(reports, "scale", "BM_SolverIterationSteadyFleet/1024/0")
    on = measure(reports, "scale", "BM_SolverIterationSteadyFleet/1024/1")
    speedup = off[0] / on[0]
    verdict = "FAIL" if speedup < QUIESCENCE_SPEEDUP_MIN else "PASS"
    return verdict, "fails below %gx" % QUIESCENCE_SPEEDUP_MIN, \
        "%.2fx: off %s, on %s" % (speedup, shown(off), shown(on))


def gate_counter(reports):
    inc = measure(reports, "metrics", "BM_CounterInc")
    verdict = "FAIL" if inc[0] >= COUNTER_INC_CEILING_NS else "PASS"
    return verdict, "fails at or above %g ns" % COUNTER_INC_CEILING_NS, \
        "inc " + shown(inc)


def gate_rpc(reports):
    rate = "requests_per_second"
    w1 = measure(reports, "rpc", rpc_row(1, 1), rate)
    w4 = measure(reports, "rpc", rpc_row(4, 1), rate)
    w4_single = measure(reports, "rpc", rpc_row(4, 0), rate)
    speedup = w4[0] / w1[0]
    measured = "%.2fx: w4 %s, w1 %s; batched/single at w4 %.2fx" % (
        speedup, shown(w4, "req/s"), shown(w1, "req/s"),
        w4[0] / w4_single[0])
    rule = "fails below %gx; skipped under %d cores" % (
        RPC_SPEEDUP_MIN, RPC_MIN_CORES)
    if cores(reports, "rpc") < RPC_MIN_CORES:
        return "SKIP", rule, measured
    return "FAIL" if speedup < RPC_SPEEDUP_MIN else "PASS", rule, measured


def overhead(reports, mode):
    base = measure(reports, "replica", replica_row("base"))
    other = measure(reports, "replica", replica_row(mode))
    ratio = (other[0] - base[0]) / base[0]
    measured = "%+.1f%%: %s %s, base %s" % (
        ratio * 100, mode, shown(other), shown(base))
    return ("FAIL" if ratio > OVERHEAD_MAX else "PASS"), measured


def gate_wal(reports):
    verdict, measured = overhead(reports, "wal")
    return verdict, "fails above %+g%%" % (OVERHEAD_MAX * 100), measured


def gate_replicated(reports):
    verdict, measured = overhead(reports, "replicated")
    rule = "fails above %+g%%; skipped under %d cores" % (
        OVERHEAD_MAX * 100, REPLICATED_MIN_CORES)
    if cores(reports, "replica") < REPLICATED_MIN_CORES:
        return "SKIP", rule, measured
    return verdict, rule, measured


GATES = [
    ("shm readsensor", gate_shm),
    ("quiescence 1024", gate_quiescence),
    ("counter increment", gate_counter),
    ("rpc 4 workers", gate_rpc),
    ("wal overhead", gate_wal),
    ("replicated overhead", gate_replicated),
]


def judge(reports):
    """Judge every gate; one (gate, verdict, rule, measured) per gate."""
    verdicts = []
    for name, gate in GATES:
        try:
            verdicts.append((name,) + gate(reports))
        except Missing as missing:
            verdicts.append((name, "MISSING", "", str(missing)))
    return verdicts


def exit_code(verdicts):
    found = {verdict for _, verdict, _, _ in verdicts}
    return 2 if "MISSING" in found else 1 if "FAIL" in found else 0


def configure_command():
    """The Release configure step. A fresh tree gets Ninja when it is
    installed; a configured one keeps its generator, since cmake
    refuses a -G that differs from the one in its cache."""
    configure = ["cmake", "-S", ".", "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
    configured = os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt"))
    if not configured and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    return configure


def build():
    """Configure in Release and bring the five bench programs up to date."""
    configure = configure_command()
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    make = ["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1),
            "--target"] + list(BENCHES.values())
    with open(log_path, "w") as log:
        for step in (configure, make):
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT):
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                print("bench: build failed (%s)" % log_path, file=sys.stderr)
                return False
    return True


def commit():
    """HEAD, marked +dirty when the sources the benches build from differ."""
    def git(*args):
        result = subprocess.run(["git"] + list(args), capture_output=True,
                                text=True)
        return result.stdout.strip() if result.returncode == 0 else None
    head = git("rev-parse", "HEAD")
    if head is None:
        return "unknown"
    changed = git("status", "--porcelain", "--untracked-files=no", "--",
                  "src", "bench", "CMakeLists.txt")
    return head + ("+dirty" if changed else "")


def run(key, context):
    """Run one bench program; its parsed report, or None if it failed."""
    out = "BENCH_%s.json" % key
    command = [os.path.join(BUILD_DIR, "bench", BENCHES[key]),
               "--benchmark_repetitions=%d" % REPETITIONS,
               "--benchmark_enable_random_interleaving=true",
               "--benchmark_report_aggregates_only=true",
               "--benchmark_min_time=" + MIN_TIME,
               "--benchmark_context=" + context,
               "--benchmark_out=" + out,
               "--benchmark_out_format=json"]
    print("bench: running %s" % BENCHES[key], file=sys.stderr, flush=True)
    if subprocess.call(command, stdout=sys.stderr):
        print("bench: %s failed" % BENCHES[key], file=sys.stderr)
        return None
    try:
        with open(out) as handle:
            return json.load(handle)
    except (OSError, ValueError) as error:
        print("bench: %s: %s" % (out, error), file=sys.stderr)
        return None


def main():
    if len(sys.argv) > 1:
        print("usage: python3 scripts/bench.py (takes no arguments)",
              file=sys.stderr)
        sys.exit(2)
    start = time.monotonic()
    os.chdir(REPO)
    reports = {}
    if build():
        context = "build_type=%s,commit=%s" % (BUILD_TYPE, commit())
        for key in BENCHES:
            reports[key] = run(key, context)
    verdicts = judge(reports)
    for row in [("gate", "verdict", "rule", "median (cv)")] + verdicts:
        print("%-19s %-7s %-40s %s" % row)
    print("bench: %d repetitions per row, %.0f s" % (
        REPETITIONS, time.monotonic() - start))
    sys.exit(exit_code(verdicts))


if __name__ == "__main__":
    main()
