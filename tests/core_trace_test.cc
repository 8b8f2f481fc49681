/**
 * @file
 * Tests for the offline trace mode: CSV round trip, replication (the
 * paper's trick to emulate clusters larger than the testbed) and the
 * trace runner.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <sstream>

#include "core/solver.hh"
#include "core/trace.hh"

namespace mercury {
namespace core {
namespace {

TEST(UtilizationTrace, KeepsSamplesSorted)
{
    UtilizationTrace trace;
    trace.add(10.0, "m1", "cpu", 0.5);
    trace.add(5.0, "m1", "cpu", 0.2);
    trace.add(7.0, "m1", "disk", 0.1);
    const auto &samples = trace.samples();
    ASSERT_EQ(samples.size(), 3u);
    EXPECT_DOUBLE_EQ(samples[0].time, 5.0);
    EXPECT_DOUBLE_EQ(samples[1].time, 7.0);
    EXPECT_DOUBLE_EQ(samples[2].time, 10.0);
    EXPECT_DOUBLE_EQ(trace.duration(), 10.0);
}

TEST(UtilizationTrace, CsvRoundTrip)
{
    UtilizationTrace trace;
    trace.add(0.0, "m1", "cpu", 0.25);
    trace.add(1.0, "m1", "disk", 0.5);
    trace.add(2.0, "m2", "cpu", 1.0);

    std::ostringstream out;
    trace.save(out);

    std::istringstream in(out.str());
    UtilizationTrace loaded = UtilizationTrace::load(in);
    ASSERT_EQ(loaded.size(), 3u);
    EXPECT_EQ(loaded.samples()[1].machine, "m1");
    EXPECT_EQ(loaded.samples()[1].component, "disk");
    EXPECT_DOUBLE_EQ(loaded.samples()[1].utilization, 0.5);
    EXPECT_EQ(loaded.samples()[2].machine, "m2");
}

TEST(UtilizationTrace, SaveLoadRoundTripsBitForBit)
{
    // Times past six significant digits, utilizations with all 17,
    // and names that need quoting: a comma, a quote, a line break.
    UtilizationTrace trace;
    trace.add(0.0, "m1", "cpu", 0.1);
    trace.add(1234567.25, "rack 1, slot 2", "cpu", 1.0 / 3.0);
    trace.add(1234567.25, "say \"hi\"", "disk", 0.123456789012345678);
    trace.add(9007199254740993.0, "two\nlines", "cpu,0", 2.5e-300);
    trace.add(1e21, " padded ", "disk", 0.0);

    std::ostringstream out;
    trace.save(out);
    std::istringstream in(out.str());
    UtilizationTrace loaded = UtilizationTrace::load(in);

    ASSERT_EQ(loaded.size(), trace.size());
    for (size_t i = 0; i < trace.size(); ++i) {
        const UtilizationSample &want = trace.samples()[i];
        const UtilizationSample &got = loaded.samples()[i];
        EXPECT_EQ(std::bit_cast<uint64_t>(got.time),
                  std::bit_cast<uint64_t>(want.time))
            << i;
        EXPECT_EQ(got.machine, want.machine) << i;
        EXPECT_EQ(got.component, want.component) << i;
        EXPECT_EQ(std::bit_cast<uint64_t>(got.utilization),
                  std::bit_cast<uint64_t>(want.utilization))
            << i;
    }
    EXPECT_NE(out.str().find("1234567.25,"), std::string::npos);
}

TEST(UtilizationTrace, LoadReportsBadRows)
{
    auto load = [](const char *text) {
        std::istringstream in(text);
        UtilizationTrace::load(in);
    };
    EXPECT_EXIT(load("1,m1,cpu\n"), testing::ExitedWithCode(1),
                "line 1: expected 4 fields, got 3");
    EXPECT_EXIT(load("1,m1,cpu,0.5\n2,\"a\nb\",cpu\n"),
                testing::ExitedWithCode(1),
                "line 2: expected 4 fields, got 3");
    EXPECT_EXIT(load("1,\"m1,cpu,0.5\n"), testing::ExitedWithCode(1),
                "line 1: unterminated quoted field");
    EXPECT_EXIT(load("1,\"m1\"x,cpu,0.5\n"), testing::ExitedWithCode(1),
                "line 1: text after a quoted field");
    EXPECT_EXIT(load("1,m1,cpu,0.5x\n"), testing::ExitedWithCode(1),
                "line 1: malformed number");
}

TEST(UtilizationTrace, LoadSkipsCommentsAndHeader)
{
    std::istringstream in(
        "time_s,machine,component,utilization\n"
        "# a comment\n"
        "1.5,m1,cpu,0.75\n"
        "\n"
        "2.5,m1,cpu,0.25\n");
    UtilizationTrace trace = UtilizationTrace::load(in);
    ASSERT_EQ(trace.size(), 2u);
    EXPECT_DOUBLE_EQ(trace.samples()[0].time, 1.5);
    EXPECT_DOUBLE_EQ(trace.samples()[0].utilization, 0.75);
}

TEST(UtilizationTrace, ReplicationClonesMachines)
{
    UtilizationTrace trace;
    trace.add(0.0, "m1", "cpu", 0.5);
    trace.add(1.0, "m1", "cpu", 0.7);
    trace.add(0.5, "other", "cpu", 0.1);

    UtilizationTrace big = trace.replicated(
        {{"m1", {"m1", "m2", "m3", "m4"}}});
    // 2 samples x 4 clones + 1 untouched = 9.
    EXPECT_EQ(big.size(), 9u);
    size_t m4_count = 0;
    for (const auto &sample : big.samples()) {
        if (sample.machine == "m4")
            ++m4_count;
    }
    EXPECT_EQ(m4_count, 2u);
}

TEST(TraceRunner, AppliesUtilizationsAtTheRightTimes)
{
    Solver solver;
    solver.addMachine(table1Server("m1"));

    UtilizationTrace trace;
    trace.add(0.0, "m1", "cpu", 1.0);
    trace.add(100.0, "m1", "cpu", 0.0);

    TraceRunner runner(solver, trace);
    runner.record("m1", "cpu");
    runner.run(200.0);

    const TimeSeries &series = runner.series("m1", "cpu");
    EXPECT_EQ(series.size(), 200u);
    // Hot phase rises, cool phase falls.
    EXPECT_GT(series.sampleAt(100.0), series.sampleAt(1.0));
    EXPECT_LT(series.sampleAt(200.0), series.sampleAt(100.0));
}

TEST(TraceRunner, RecordAllCoversEveryNode)
{
    Solver solver;
    solver.addMachine(table1Server("m1"));
    UtilizationTrace trace;
    trace.add(0.0, "m1", "cpu", 0.5);
    TraceRunner runner(solver, trace);
    runner.recordAll();
    runner.run(10.0);
    EXPECT_EQ(runner.allSeries().size(), 14u);
    for (const TimeSeries &ts : runner.allSeries())
        EXPECT_EQ(ts.size(), 10u);
}

TEST(TraceRunner, CsvOutputShape)
{
    Solver solver;
    solver.addMachine(table1Server("m1"));
    UtilizationTrace trace;
    trace.add(0.0, "m1", "cpu", 1.0);
    TraceRunner runner(solver, trace);
    runner.record("m1", "cpu");
    runner.record("m1", "cpu_air");
    runner.run(5.0);

    std::ostringstream out;
    runner.writeCsv(out);
    std::string text = out.str();
    EXPECT_NE(text.find("time_s,m1.cpu,m1.cpu_air"), std::string::npos);
    // Header + 5 rows.
    size_t lines = std::count(text.begin(), text.end(), '\n');
    EXPECT_EQ(lines, 6u);
}

TEST(TraceRunner, AliasWorksInRecord)
{
    Solver solver;
    solver.addMachine(table1Server("m1"));
    UtilizationTrace trace;
    trace.add(0.0, "m1", "disk", 1.0); // alias in the trace itself
    TraceRunner runner(solver, trace);
    runner.record("m1", "disk");
    runner.run(50.0);
    EXPECT_GT(runner.series("m1", "disk").lastValue(), 21.6);
}

} // namespace
} // namespace core
} // namespace mercury
