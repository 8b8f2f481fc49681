/**
 * @file
 * Tests for the metrics registry: instrument correctness, concurrent
 * increments, the MetricsSnapshot RPC round trip, and the Prometheus
 * text exposition.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "core/solver.hh"
#include "metrics/metrics.hh"
#include "proto/solver_service.hh"
#include "sensor/client.hh"
#include "sensor/transport.hh"

namespace mercury {
namespace metrics {
namespace {

TEST(Counter, StartsAtZeroAndAccumulates)
{
    Counter counter;
    EXPECT_EQ(counter.value(), 0u);
    counter.inc();
    counter.inc(41);
    EXPECT_EQ(counter.value(), 42u);
}

TEST(Gauge, SetAndAdd)
{
    Gauge gauge;
    EXPECT_DOUBLE_EQ(gauge.value(), 0.0);
    gauge.set(3.5);
    EXPECT_DOUBLE_EQ(gauge.value(), 3.5);
    gauge.add(-1.25);
    EXPECT_DOUBLE_EQ(gauge.value(), 2.25);
    gauge.set(-7.0);
    EXPECT_DOUBLE_EQ(gauge.value(), -7.0);
}

TEST(Histogram, CountSumMean)
{
    Histogram hist({1.0, 2.0, 4.0});
    hist.observe(0.5);
    hist.observe(1.5);
    hist.observe(3.0);
    hist.observe(100.0); // overflow bucket
    auto snap = hist.snapshot();
    EXPECT_EQ(snap.count, 4u);
    EXPECT_DOUBLE_EQ(snap.sum, 105.0);
    EXPECT_DOUBLE_EQ(snap.mean(), 26.25);
    ASSERT_EQ(snap.counts.size(), 4u);
    EXPECT_EQ(snap.counts[0], 1u);
    EXPECT_EQ(snap.counts[1], 1u);
    EXPECT_EQ(snap.counts[2], 1u);
    EXPECT_EQ(snap.counts[3], 1u);
}

TEST(Histogram, QuantilesInterpolate)
{
    Histogram hist({10.0, 20.0, 30.0});
    // 100 observations uniformly in the (0,10] bucket, 100 in (10,20].
    for (int i = 0; i < 100; ++i)
        hist.observe(5.0);
    for (int i = 0; i < 100; ++i)
        hist.observe(15.0);
    auto snap = hist.snapshot();
    // p50 lands exactly at the first bucket's upper bound.
    EXPECT_NEAR(snap.p50(), 10.0, 0.2);
    // p99 is deep inside the second bucket.
    double p99 = snap.p99();
    EXPECT_GT(p99, 15.0);
    EXPECT_LE(p99, 20.0);
}

TEST(Histogram, OverflowQuantileClampsToLastBound)
{
    Histogram hist({1.0});
    for (int i = 0; i < 10; ++i)
        hist.observe(50.0);
    EXPECT_DOUBLE_EQ(hist.snapshot().p99(), 1.0);
}

TEST(Histogram, EmptySnapshotIsSane)
{
    Histogram hist(Histogram::latencyBounds());
    auto snap = hist.snapshot();
    EXPECT_EQ(snap.count, 0u);
    EXPECT_DOUBLE_EQ(snap.mean(), 0.0);
    EXPECT_DOUBLE_EQ(snap.p99(), 0.0);
}

TEST(Histogram, LatencyBoundsAreStrictlyIncreasing)
{
    auto bounds = Histogram::latencyBounds();
    ASSERT_GE(bounds.size(), 10u);
    for (size_t i = 1; i < bounds.size(); ++i)
        EXPECT_LT(bounds[i - 1], bounds[i]) << i;
    EXPECT_LE(bounds.front(), 1e-6);
    EXPECT_GE(bounds.back(), 10.0);
}

TEST(HistogramDeathTest, RejectsBadBounds)
{
    EXPECT_DEATH(Histogram({}), "bound");
    EXPECT_DEATH(Histogram({2.0, 1.0}), "increasing");
}

TEST(Metrics, ConcurrentCounterHammer)
{
    Registry registry;
    Counter *counter = registry.counter("hammer_total");
    Histogram *hist =
        registry.histogram("hammer_seconds", {1e-6, 1e-3, 1.0});
    constexpr int kThreads = 8;
    constexpr int kIters = 20000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < kIters; ++i) {
                counter->inc();
                hist->observe(1e-4);
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    EXPECT_EQ(counter->value(),
              static_cast<uint64_t>(kThreads) * kIters);
    auto snap = hist->snapshot();
    EXPECT_EQ(snap.count, static_cast<uint64_t>(kThreads) * kIters);
    EXPECT_NEAR(snap.sum, kThreads * kIters * 1e-4, 1e-6);
}

TEST(Metrics, RegistryReturnsSameInstrumentForSameName)
{
    Registry registry;
    EXPECT_EQ(registry.counter("a"), registry.counter("a"));
    EXPECT_EQ(registry.gauge("g"), registry.gauge("g"));
}

TEST(MetricsDeathTest, KindMismatchPanics)
{
    Registry registry;
    registry.counter("x");
    EXPECT_DEATH(registry.gauge("x"), "different kind");
}

TEST(Metrics, CallbackGuardUnregistersOnDestruction)
{
    Registry registry;
    {
        CallbackGuard guard;
        guard.add(registry, "cb_value", "", [] { return 7.0; });
        auto values = registry.valuesFor({"cb_value"});
        ASSERT_EQ(values.size(), 1u);
        EXPECT_DOUBLE_EQ(values[0], 7.0);
    }
    auto values = registry.valuesFor({"cb_value"});
    ASSERT_EQ(values.size(), 1u);
    EXPECT_TRUE(std::isnan(values[0]));
}

TEST(Metrics, CallbackReregistrationNewOwnerWins)
{
    // Two components claim the same name (a test builds daemon A,
    // destroys it, builds daemon B). The newer registration must
    // survive the older guard's destruction.
    Registry registry;
    auto first = std::make_unique<CallbackGuard>();
    first->add(registry, "owner", "", [] { return 1.0; });
    CallbackGuard second;
    second.add(registry, "owner", "", [] { return 2.0; });
    first.reset(); // stale token: must NOT remove the new callback
    auto values = registry.valuesFor({"owner"});
    ASSERT_EQ(values.size(), 1u);
    EXPECT_DOUBLE_EQ(values[0], 2.0);
}

TEST(Metrics, RenderSummaryListsEveryInstrument)
{
    Registry registry;
    registry.counter("events_total")->inc(3);
    registry.gauge("level")->set(1.5);
    registry.histogram("lat_seconds", {0.1, 1.0})->observe(0.05);
    std::string text = registry.renderSummary();
    EXPECT_NE(text.find("events_total 3"), std::string::npos) << text;
    EXPECT_NE(text.find("level 1.5"), std::string::npos) << text;
    EXPECT_NE(text.find("lat_seconds count=1"), std::string::npos)
        << text;
}

TEST(Metrics, PromExpositionGolden)
{
    Registry registry;
    registry.counter("req_total", "requests")->inc(5);
    registry.gauge("temp", "degrees")->set(21.5);
    Histogram *hist = registry.histogram("lat", {0.5, 1.0}, "latency");
    hist->observe(0.25);
    hist->observe(0.75);
    hist->observe(2.0);
    const char *expected = "# HELP lat latency\n"
                           "# TYPE lat histogram\n"
                           "lat_bucket{le=\"0.5\"} 1\n"
                           "lat_bucket{le=\"1\"} 2\n"
                           "lat_bucket{le=\"+Inf\"} 3\n"
                           "lat_sum 3\n"
                           "lat_count 3\n"
                           "# HELP req_total requests\n"
                           "# TYPE req_total counter\n"
                           "req_total 5\n"
                           "# HELP temp degrees\n"
                           "# TYPE temp gauge\n"
                           "temp 21.5\n";
    EXPECT_EQ(registry.renderProm(), expected);
}

TEST(Metrics, SamplesExpandHistograms)
{
    Registry registry;
    registry.histogram("h", {1.0})->observe(0.5);
    std::vector<std::string> names;
    for (const Sample &sample : registry.samples())
        names.push_back(sample.name);
    EXPECT_EQ(names, (std::vector<std::string>{"h_count", "h_sum",
                                               "h_p50", "h_p99"}));
}

TEST(Metrics, WriteTextFileAtomically)
{
    Registry registry;
    registry.counter("written_total")->inc(9);
    std::string path = ::testing::TempDir() + "metrics_test.prom";
    ASSERT_TRUE(writeTextFile(registry, path));
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    EXPECT_NE(buffer.str().find("written_total 9"), std::string::npos);
    // No tmp file left behind.
    std::ifstream tmp(path + ".tmp");
    EXPECT_FALSE(tmp.good());
    std::remove(path.c_str());
}

TEST(Metrics, WriteTextFileFailsGracefully)
{
    Registry registry;
    EXPECT_FALSE(
        writeTextFile(registry, "/nonexistent-dir/metrics.prom"));
}

TEST(Metrics, SnapshotRpcRoundTrip)
{
    // A snapshot big enough to need several 110-byte fragments must
    // reassemble exactly through SensorClient::metricsText().
    core::Solver solver;
    solver.addMachine(core::table1Server("machine1"));
    // Declared before the service: the service's guard unregisters
    // from the registry when it is destroyed, so the registry must
    // outlive it.
    Registry registry;
    proto::SolverService service(solver);

    for (int i = 0; i < 40; ++i) {
        registry.counter("pagination_counter_" + std::to_string(i))
            ->inc(i);
    }
    service.setMetricsRegistry(&registry);

    sensor::SensorClient client(
        std::make_unique<sensor::LocalTransport>(service), "machine1");
    auto text = client.metricsText();
    ASSERT_TRUE(text.has_value());
    EXPECT_EQ(*text, registry.renderSummary());
    EXPECT_GT(text->size(), proto::kMetricsFragmentMax);
    EXPECT_NE(text->find("pagination_counter_39 39"), std::string::npos);
}

TEST(Metrics, SnapshotRpcIncludesServiceCounters)
{
    // setMetricsRegistry() exports the service's own packet-health
    // counters into the registry it is handed.
    core::Solver solver;
    solver.addMachine(core::table1Server("machine1"));
    Registry registry;
    proto::SolverService service(solver);
    service.setMetricsRegistry(&registry);

    sensor::SensorClient client(
        std::make_unique<sensor::LocalTransport>(service), "machine1");
    ASSERT_TRUE(client.read("cpu").has_value());
    auto text = client.metricsText();
    ASSERT_TRUE(text.has_value());
    EXPECT_NE(text->find("net_sensor_reads_total 1"), std::string::npos)
        << *text;
    EXPECT_NE(text->find("net_updates_lost_total"), std::string::npos);
}

} // namespace
} // namespace metrics
} // namespace mercury
