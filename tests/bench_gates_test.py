#!/usr/bin/env python3
"""The gates of scripts/bench.py, judged on canned aggregate reports.

Each gate must pass on its side of the threshold and fail just past
it, skip where it needs more cores than the host has, and name what is
missing when a report, row or median is absent. The configure step must
keep the generator of an already configured build tree. No bench
program runs.
"""

import importlib.util
import os
import tempfile
import unittest
from unittest import mock

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                      "scripts", "bench.py")
spec = importlib.util.spec_from_file_location("bench", SCRIPT)
bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench)

SHM = "BM_ReadSensorShm"
OFF = "BM_SolverIterationSteadyFleet/1024/0"
ON = "BM_SolverIterationSteadyFleet/1024/1"
INC = "BM_CounterInc"
RATE = "requests_per_second"


def report(rows, cores=4, unit="ns"):
    """A Google Benchmark aggregate report: a median and a cv entry per
    row, where rows maps run_name to the median's fields."""
    entries = []
    for name, fields in rows.items():
        for aggregate in ("median", "cv"):
            entry = {"name": "%s_%s" % (name, aggregate), "run_name": name,
                     "run_type": "aggregate", "aggregate_name": aggregate,
                     "time_unit": unit}
            for field, value in fields.items():
                entry[field] = value if aggregate == "median" else 0.02
            entries.append(entry)
    return {"context": {"num_cpus": cores}, "benchmarks": entries}


def rpc(w1, w4, cores=4):
    rows = {}
    for workers in (1, 2, 4):
        for batched in (1, 0):
            rate = {1: w1, 2: (w1 + w4) / 2, 4: w4}[workers]
            rows[bench.rpc_row(workers, batched)] = {
                "real_time": 500.0, RATE: rate if batched else rate / 1.5}
    return report(rows, cores, "ms")


def replica(base, wal, replicated, cores=4):
    return report({bench.replica_row("base"): {"real_time": base},
                   bench.replica_row("wal"): {"real_time": wal},
                   bench.replica_row("replicated"): {"real_time": replicated}},
                  cores, "us")


def passing():
    """Reports on which every gate passes."""
    return {
        "micro": report({SHM: {"real_time": 80.0}}),
        "scale": report({OFF: {"real_time": 100.0}, ON: {"real_time": 5.0}},
                        unit="us"),
        "metrics": report({INC: {"real_time": 9.0}}),
        "rpc": rpc(100e3, 300e3),
        "replica": replica(150.0, 152.0, 154.0),
    }


def verdicts(reports):
    return {name: verdict for name, verdict, _, _ in bench.judge(reports)}


class GateTest(unittest.TestCase):
    def judged(self, gate, key, value):
        reports = passing()
        reports[key] = value
        return verdicts(reports)[gate]

    def test_every_gate_passes(self):
        judged = bench.judge(passing())
        self.assertEqual([row[1] for row in judged], ["PASS"] * 6)
        self.assertEqual(bench.exit_code(judged), 0)

    def test_shm_fails_above_500_ns(self):
        gate = "shm readsensor"
        self.assertEqual(self.judged(gate, "micro", report(
            {SHM: {"real_time": 500.0}})), "PASS")
        self.assertEqual(self.judged(gate, "micro", report(
            {SHM: {"real_time": 500.1}})), "FAIL")
        # The median's own time unit is honoured.
        self.assertEqual(self.judged(gate, "micro", report(
            {SHM: {"real_time": 0.5001}}, unit="us")), "FAIL")

    def test_quiescence_fails_below_10x(self):
        gate = "quiescence 1024"
        self.assertEqual(self.judged(gate, "scale", report(
            {OFF: {"real_time": 100.0}, ON: {"real_time": 10.0}})), "PASS")
        self.assertEqual(self.judged(gate, "scale", report(
            {OFF: {"real_time": 99.9}, ON: {"real_time": 10.0}})), "FAIL")

    def test_counter_fails_at_or_above_50_ns(self):
        gate = "counter increment"
        self.assertEqual(self.judged(gate, "metrics", report(
            {INC: {"real_time": 49.9}})), "PASS")
        self.assertEqual(self.judged(gate, "metrics", report(
            {INC: {"real_time": 50.0}})), "FAIL")

    def test_rpc_fails_below_2x_and_skips_under_4_cores(self):
        gate = "rpc 4 workers"
        self.assertEqual(self.judged(gate, "rpc", rpc(100e3, 200e3)), "PASS")
        self.assertEqual(self.judged(gate, "rpc", rpc(100e3, 199.9e3)),
                         "FAIL")
        self.assertEqual(self.judged(gate, "rpc", rpc(100e3, 100e3, 3)),
                         "SKIP")
        reports = passing()
        reports["rpc"] = rpc(100e3, 100e3, 1)
        row = [r for r in bench.judge(reports) if r[0] == gate][0]
        self.assertIn("batched/single at w4 1.50x", row[3])

    def test_wal_fails_above_5_percent(self):
        gate = "wal overhead"
        self.assertEqual(self.judged(gate, "replica", replica(
            100.0, 105.0, 100.0)), "PASS")
        self.assertEqual(self.judged(gate, "replica", replica(
            100.0, 105.01, 100.0)), "FAIL")

    def test_replicated_fails_above_5_percent_and_skips_on_one_core(self):
        gate = "replicated overhead"
        self.assertEqual(self.judged(gate, "replica", replica(
            100.0, 100.0, 105.0)), "PASS")
        self.assertEqual(self.judged(gate, "replica", replica(
            100.0, 100.0, 105.01)), "FAIL")
        self.assertEqual(self.judged(gate, "replica", replica(
            100.0, 100.0, 200.0, 1)), "SKIP")
        # The WAL gate still runs on one core.
        reports = passing()
        reports["replica"] = replica(100.0, 200.0, 200.0, 1)
        self.assertEqual(verdicts(reports)["wal overhead"], "FAIL")

    def test_failing_gate_does_not_stop_later_gates(self):
        reports = passing()
        reports["micro"] = report({SHM: {"real_time": 900.0}})
        judged = bench.judge(reports)
        self.assertEqual([row[1] for row in judged],
                         ["FAIL"] + ["PASS"] * 5)
        self.assertEqual(bench.exit_code(judged), 1)

    def test_missing_row_exits_2_and_is_named(self):
        reports = passing()
        reports["metrics"] = report({"BM_GaugeSet": {"real_time": 3.0}})
        judged = bench.judge(reports)
        row = [r for r in judged if r[0] == "counter increment"][0]
        self.assertEqual(row[1], "MISSING")
        self.assertIn("BM_CounterInc", row[3])
        self.assertEqual(bench.exit_code(judged), 2)

    def test_missing_median_exits_2_and_is_named(self):
        reports = passing()
        reports["micro"]["benchmarks"] = [
            entry for entry in reports["micro"]["benchmarks"]
            if entry["aggregate_name"] != "median"]
        judged = bench.judge(reports)
        self.assertEqual(judged[0][1], "MISSING")
        self.assertIn("median of BM_ReadSensorShm", judged[0][3])
        self.assertEqual(bench.exit_code(judged), 2)

    def test_missing_report_outranks_a_failure(self):
        reports = passing()
        reports["micro"] = report({SHM: {"real_time": 900.0}})
        del reports["replica"]
        judged = bench.judge(reports)
        self.assertEqual([row[1] for row in judged],
                         ["FAIL"] + ["PASS"] * 3 + ["MISSING"] * 2)
        self.assertIn("BENCH_replica.json", judged[4][3])
        self.assertEqual(bench.exit_code(judged), 2)


class ConfigureTest(unittest.TestCase):
    """The configure step keeps the generator of a configured tree."""

    RELEASE = ["cmake", "-S", ".", "-B", bench.BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]

    def setUp(self):
        tmp = tempfile.TemporaryDirectory()
        self.addCleanup(tmp.cleanup)
        self.addCleanup(os.chdir, os.getcwd())
        os.chdir(tmp.name)

    def configure(self, ninja):
        with mock.patch.object(bench.shutil, "which",
                               return_value="/usr/bin/ninja" if ninja
                               else None):
            return bench.configure_command()

    def test_fresh_tree_picks_ninja_when_installed(self):
        self.assertEqual(self.configure(ninja=True),
                         self.RELEASE + ["-G", "Ninja"])
        self.assertEqual(self.configure(ninja=False), self.RELEASE)

    def test_configured_tree_keeps_its_generator(self):
        os.makedirs(bench.BUILD_DIR)
        with open(os.path.join(bench.BUILD_DIR, "CMakeCache.txt"), "w"):
            pass
        self.assertEqual(self.configure(ninja=True), self.RELEASE)


if __name__ == "__main__":
    unittest.main()
