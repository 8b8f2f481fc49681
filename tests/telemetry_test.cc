/**
 * @file
 * Tests for the shared-memory telemetry plane: writer/reader round
 * trips, alias resolution, the seqlock under a hammering writer, the
 * staleness rule (on a deterministic test clock), layout/version
 * mismatches, and recovery after a writer dies or restarts with a
 * different topology.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>

#include "core/solver.hh"
#include "telemetry/layout.hh"
#include "telemetry/reader.hh"
#include "telemetry/writer.hh"

namespace mercury {
namespace {

using telemetry::Reader;
using telemetry::Writer;

std::string
uniqueShmName()
{
    static std::atomic<int> counter{0};
    return "/mercury.test." + std::to_string(::getpid()) + "." +
           std::to_string(counter.fetch_add(1));
}

/** Deterministic staleness clock, restored on scope exit. */
class TestClock
{
  public:
    explicit TestClock(uint64_t start)
        : now_(start)
    {
        Reader::setClockForTest([this] { return now_.load(); });
    }
    ~TestClock() { Reader::setClockForTest(nullptr); }

    void set(uint64_t nanos) { now_.store(nanos); }
    void advance(uint64_t nanos) { now_.fetch_add(nanos); }

  private:
    std::atomic<uint64_t> now_;
};

TEST(Telemetry, WriterPublishesAndReaderReads)
{
    core::Solver solver;
    solver.addMachine(core::table1Server("m1"));
    solver.addMachine(core::table1Server("m2"));
    solver.setUtilization("m1", "cpu", 0.7);
    solver.run(500.0);

    std::string name = uniqueShmName();
    Writer writer(name, solver, 1.0);
    ASSERT_TRUE(writer.valid());
    writer.installHook();

    Reader reader(name);
    EXPECT_TRUE(reader.usable());

    auto slot = reader.resolve("m1", "cpu");
    ASSERT_TRUE(slot.has_value());
    auto sample = reader.read(*slot);
    ASSERT_TRUE(sample.has_value());
    EXPECT_DOUBLE_EQ(sample->temperature,
                     solver.temperature("m1", "cpu"));
    EXPECT_DOUBLE_EQ(sample->utilization, 0.7);
    EXPECT_EQ(sample->iteration, solver.iterations());
    EXPECT_DOUBLE_EQ(sample->emulatedSeconds, solver.emulatedSeconds());

    // The iteration hook republishes: the next read sees new state.
    solver.iterate();
    sample = reader.read(*slot);
    ASSERT_TRUE(sample.has_value());
    EXPECT_EQ(sample->iteration, solver.iterations());
    EXPECT_DOUBLE_EQ(sample->temperature,
                     solver.temperature("m1", "cpu"));

    // Both machines are in the directory.
    EXPECT_TRUE(reader.resolve("m2", "cpu_air").has_value());
    EXPECT_FALSE(reader.resolve("m3", "cpu").has_value());
    EXPECT_FALSE(reader.resolve("m1", "gpu").has_value());
}

TEST(Telemetry, AliasResolvesLikeTheSolver)
{
    core::Solver solver;
    solver.addMachine(core::table1Server("m1"));
    std::string name = uniqueShmName();
    Writer writer(name, solver, 1.0);
    ASSERT_TRUE(writer.valid());

    Reader reader(name);
    auto via_alias = reader.resolve("m1", "disk");
    auto direct = reader.resolve("m1", "disk_platters");
    ASSERT_TRUE(via_alias.has_value());
    ASSERT_TRUE(direct.has_value());
    EXPECT_EQ(via_alias->index, direct->index);

    auto sample = reader.read("m1", "disk");
    ASSERT_TRUE(sample.has_value());
    EXPECT_DOUBLE_EQ(sample->temperature,
                     solver.temperature("m1", "disk"));
}

TEST(Telemetry, MissingSegmentIsAMissThenRecovers)
{
    std::string name = uniqueShmName();
    uint64_t start = telemetry::monotonicNanos();
    TestClock clock(start);

    Reader reader(name);
    EXPECT_FALSE(reader.usable());
    EXPECT_FALSE(reader.read("m1", "cpu").has_value());

    core::Solver solver;
    solver.addMachine(core::table1Server("m1"));
    Writer writer(name, solver, 1.0);
    ASSERT_TRUE(writer.valid());

    // Reconnects are throttled; within the throttle window the reader
    // still misses, past it the segment is picked up.
    EXPECT_FALSE(reader.usable());
    clock.advance(300'000'000ULL); // > 200 ms throttle
    EXPECT_TRUE(reader.usable());
    auto sample = reader.read("m1", "cpu");
    ASSERT_TRUE(sample.has_value());
    EXPECT_DOUBLE_EQ(sample->temperature,
                     solver.temperature("m1", "cpu"));
}

TEST(Telemetry, StaleHeartbeatFallsBackAndHeals)
{
    core::Solver solver;
    solver.addMachine(core::table1Server("m1"));
    std::string name = uniqueShmName();
    Writer writer(name, solver, 1.0); // threshold: 4 periods = 4 s
    ASSERT_TRUE(writer.valid());

    uint64_t published = telemetry::monotonicNanos();
    TestClock clock(published + 1'000'000ULL);

    Reader reader(name);
    auto slot = reader.resolve("m1", "cpu");
    ASSERT_TRUE(slot.has_value());
    EXPECT_TRUE(reader.read(*slot).has_value());

    // The writer goes quiet for > 4 iteration periods: stale.
    clock.set(published + 5'000'000'000ULL);
    EXPECT_FALSE(reader.read(*slot).has_value());
    EXPECT_GE(reader.stats().staleFalls, 1u);

    // It publishes again (heartbeat catches back up): reads resume
    // without re-resolving — same mapping, same generation.
    writer.publish();
    clock.set(telemetry::monotonicNanos() + 1'000'000ULL);
    EXPECT_TRUE(reader.read(*slot).has_value());
}

TEST(Telemetry, DeadWriterIsNoticedImmediately)
{
    core::Solver solver;
    solver.addMachine(core::table1Server("m1"));
    std::string name = uniqueShmName();

    uint64_t start = telemetry::monotonicNanos();
    TestClock clock(start);

    auto writer = std::make_unique<Writer>(name, solver, 1.0);
    ASSERT_TRUE(writer->valid());
    Reader reader(name);
    auto slot = reader.resolve("m1", "cpu");
    ASSERT_TRUE(slot.has_value());
    ASSERT_TRUE(reader.read(*slot).has_value());

    // Destruction stomps the magic before unlinking: the very next
    // read misses, no staleness wait needed.
    writer.reset();
    EXPECT_FALSE(reader.read(*slot).has_value());
    EXPECT_FALSE(reader.usable());
}

TEST(Telemetry, WriterRestartInvalidatesCachedSlots)
{
    std::string name = uniqueShmName();
    uint64_t start = telemetry::monotonicNanos();
    TestClock clock(start);

    core::Solver one;
    one.addMachine(core::table1Server("m1"));
    auto writer = std::make_unique<Writer>(name, one, 1.0);
    Reader reader(name);
    auto old_slot = reader.resolve("m1", "cpu");
    ASSERT_TRUE(old_slot.has_value());
    uint64_t old_generation = reader.generation();

    // Restart under the same name with a different topology.
    writer.reset();
    core::Solver two;
    two.addMachine(core::table1Server("extra"));
    two.addMachine(core::table1Server("m1"));
    writer = std::make_unique<Writer>(name, two, 1.0);

    clock.advance(300'000'000ULL); // past the reconnect throttle
    EXPECT_TRUE(reader.usable());
    EXPECT_GT(reader.generation(), old_generation);

    // The cached handle is refused; a fresh resolve works.
    EXPECT_FALSE(reader.read(*old_slot).has_value());
    auto fresh = reader.resolve("m1", "cpu");
    ASSERT_TRUE(fresh.has_value());
    auto sample = reader.read(*fresh);
    ASSERT_TRUE(sample.has_value());
    EXPECT_DOUBLE_EQ(sample->temperature, two.temperature("m1", "cpu"));
}

TEST(Telemetry, VersionMismatchIsRejected)
{
    // Hand-craft a segment with a future layout version.
    std::string name = uniqueShmName();
    int fd = ::shm_open(name.c_str(), O_CREAT | O_RDWR, 0644);
    ASSERT_GE(fd, 0);
    telemetry::Layout layout{0, 0};
    ASSERT_EQ(::ftruncate(fd, static_cast<off_t>(layout.totalBytes())),
              0);
    void *base = ::mmap(nullptr, layout.totalBytes(),
                        PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
    ::close(fd);
    ASSERT_NE(base, MAP_FAILED);
    auto *header = static_cast<telemetry::Header *>(base);
    header->version = telemetry::kShmVersion + 1;
    header->periodNanos = 1'000'000'000ULL;
    header->heartbeatNanos = telemetry::monotonicNanos();
    header->magic = telemetry::kShmMagic;

    Reader reader(name);
    EXPECT_FALSE(reader.usable());
    EXPECT_FALSE(reader.read("m1", "cpu").has_value());

    ::munmap(base, layout.totalBytes());
    ::shm_unlink(name.c_str());
}

TEST(Telemetry, OversizedDirectoryIsRejected)
{
    // A header whose slotCount promises more bytes than the object
    // holds must not be mapped (hostile or torn segment).
    std::string name = uniqueShmName();
    int fd = ::shm_open(name.c_str(), O_CREAT | O_RDWR, 0644);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::ftruncate(fd, sizeof(telemetry::Header)), 0);
    void *base = ::mmap(nullptr, sizeof(telemetry::Header),
                        PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
    ::close(fd);
    ASSERT_NE(base, MAP_FAILED);
    auto *header = static_cast<telemetry::Header *>(base);
    header->version = telemetry::kShmVersion;
    header->slotCount = 1u << 20;
    header->periodNanos = 1'000'000'000ULL;
    header->heartbeatNanos = telemetry::monotonicNanos();
    header->magic = telemetry::kShmMagic;

    Reader reader(name);
    EXPECT_FALSE(reader.usable());

    ::munmap(base, sizeof(telemetry::Header));
    ::shm_unlink(name.c_str());
}

TEST(Telemetry, LongNamesAreSkippedNotTruncated)
{
    core::Solver solver;
    std::string long_name(40, 'x'); // > kNameWidth
    solver.addMachine(core::table1Server(long_name));
    solver.addMachine(core::table1Server("m1"));

    std::string name = uniqueShmName();
    Writer writer(name, solver, 1.0);
    ASSERT_TRUE(writer.valid());

    Reader reader(name);
    EXPECT_TRUE(reader.resolve("m1", "cpu").has_value());
    EXPECT_FALSE(reader.resolve(long_name, "cpu").has_value());
}

TEST(Telemetry, SeqlockNeverShowsTornReads)
{
    // A writer hammers publishes while the payload encodes an exact
    // invariant (temperature = 100 * utilization + 10, same doubles on
    // both sides); any torn read would break it.
    core::Solver solver;
    solver.addMachine(core::table1Server("m1"));
    core::ThermalGraph &graph = solver.machine("m1");

    std::string name = uniqueShmName();
    Writer writer(name, solver, 1.0);
    ASSERT_TRUE(writer.valid());

    // Establish the invariant before the reader can look: the
    // constructor's own first publish snapshotted u=0, t=21.6.
    graph.setUtilization("cpu", 0.0);
    graph.setTemperature("cpu", 10.0);
    writer.publish();

    std::atomic<bool> stop{false};
    std::thread publisher([&] {
        int i = 0;
        while (!stop.load(std::memory_order_relaxed)) {
            double u = static_cast<double>(i % 997) / 996.0;
            graph.setUtilization("cpu", u);
            graph.setTemperature("cpu", 100.0 * u + 10.0);
            writer.publish();
            ++i;
        }
    });

    Reader reader(name);
    auto slot = reader.resolve("m1", "cpu");
    ASSERT_TRUE(slot.has_value());

    uint64_t hits = 0;
    for (int i = 0; i < 200000; ++i) {
        auto sample = reader.read(*slot);
        if (!sample)
            continue; // bounded seqlock retries exhausted; never torn
        ++hits;
        ASSERT_DOUBLE_EQ(sample->temperature,
                         100.0 * sample->utilization + 10.0)
            << "torn read after " << hits << " hits";
    }
    stop.store(true, std::memory_order_relaxed);
    publisher.join();
    EXPECT_GT(hits, 0u);
}

TEST(Telemetry, FrozenMachineDataStaysFreshWhileWriterHeartbeats)
{
    // Staleness is a property of the writer, not of a quiescent
    // machine's data: a frozen machine republishes with an unchanged
    // stateVersion (the writer skips the recopy), yet its slots stay
    // readable as long as the segment heartbeat advances.
    core::Solver solver;
    solver.addMachine(core::table1Server("hot"));
    solver.addMachine(core::table1Server("frozen"));

    std::string name = uniqueShmName();
    Writer writer(name, solver, 1.0);
    ASSERT_TRUE(writer.valid());

    Reader reader(name);
    auto frozen_slot = reader.resolve("frozen", "cpu");
    ASSERT_TRUE(frozen_slot.has_value());
    auto before = reader.read(*frozen_slot);
    ASSERT_TRUE(before.has_value());

    // Only "hot" changes across five publishes.
    for (int i = 1; i <= 5; ++i) {
        solver.setUtilization("hot", "cpu", 0.1 * i);
        writer.publish();
    }

    auto after = reader.read(*frozen_slot);
    ASSERT_TRUE(after.has_value());
    EXPECT_DOUBLE_EQ(after->temperature, before->temperature);
    EXPECT_DOUBLE_EQ(after->utilization, before->utilization);
    EXPECT_EQ(reader.stats().staleFalls, 0u);

    // The hot machine's latest value did land in the same publishes.
    auto hot = reader.read("hot", "cpu");
    ASSERT_TRUE(hot.has_value());
    EXPECT_DOUBLE_EQ(hot->utilization, 0.5);
}

TEST(Telemetry, NameNormalizationAndDefaults)
{
    EXPECT_EQ(telemetry::normalizeShmName("foo"), "/foo");
    EXPECT_EQ(telemetry::normalizeShmName("/foo"), "/foo");
    EXPECT_EQ(telemetry::defaultShmName(8367), "/mercury.8367");
}

} // namespace
} // namespace mercury
