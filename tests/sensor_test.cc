/**
 * @file
 * End-to-end tests for the sensor path: SolverService dispatch, the
 * typed SensorClient, the paper's C-style API (Figure 3), and a real
 * UDP round trip against a background SolverDaemon.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "core/solver.hh"
#include "proto/solver_daemon.hh"
#include "proto/solver_service.hh"
#include "sensor/client.hh"
#include "sensor/sensor_api.hh"
#include "sensor/transport.hh"
#include "telemetry/reader.hh"
#include "telemetry/writer.hh"

namespace mercury {
namespace {

class SensorFixture : public ::testing::Test
{
  protected:
    SensorFixture()
        : service_(solver_)
    {
        solver_.addMachine(core::table1Server("machine1"));
        solver_.setUtilization("machine1", "cpu", 1.0);
        solver_.run(5000.0);
    }

    core::Solver solver_;
    proto::SolverService service_;
};

TEST_F(SensorFixture, ServiceAppliesUtilizationUpdates)
{
    proto::UtilizationUpdate update;
    update.machine = "machine1";
    update.component = "disk"; // alias
    update.utilization = 0.6;
    auto packet = proto::encode(update);
    auto reply = service_.handlePacket(packet.data(), packet.size());
    EXPECT_FALSE(reply.has_value()); // one-way
    EXPECT_EQ(service_.updatesApplied(), 1u);
    EXPECT_DOUBLE_EQ(
        solver_.machine("machine1").utilization("disk_platters"), 0.6);
}

TEST_F(SensorFixture, ServiceRejectsUnknownTargets)
{
    proto::UtilizationUpdate update;
    update.machine = "nope";
    update.component = "cpu";
    update.utilization = 0.5;
    auto packet = proto::encode(update);
    service_.handlePacket(packet.data(), packet.size());
    EXPECT_EQ(service_.updatesRejected(), 1u);

    update.machine = "machine1";
    update.component = "cpu_air"; // unpowered node
    packet = proto::encode(update);
    service_.handlePacket(packet.data(), packet.size());
    EXPECT_EQ(service_.updatesRejected(), 2u);
}

TEST_F(SensorFixture, ServiceAnswersSensorRequests)
{
    proto::SensorRequest request{1, "machine1", "cpu"};
    auto packet = proto::encode(request);
    auto reply_packet = service_.handlePacket(packet.data(), packet.size());
    ASSERT_TRUE(reply_packet.has_value());
    auto reply = proto::decode(*reply_packet);
    ASSERT_TRUE(reply.has_value());
    const auto &sensor_reply = std::get<proto::SensorReply>(*reply);
    EXPECT_EQ(sensor_reply.status, proto::Status::Ok);
    EXPECT_NEAR(sensor_reply.temperature,
                solver_.temperature("machine1", "cpu"), 1e-9);
    EXPECT_EQ(service_.sensorReads(), 1u);
}

TEST_F(SensorFixture, ServiceReportsUnknowns)
{
    proto::SensorRequest request{2, "ghost", "cpu"};
    auto packet = proto::encode(request);
    auto reply = proto::decode(*service_.handlePacket(packet.data(),
                                                      packet.size()));
    EXPECT_EQ(std::get<proto::SensorReply>(*reply).status,
              proto::Status::UnknownMachine);

    request = {3, "machine1", "gpu"};
    packet = proto::encode(request);
    reply = proto::decode(*service_.handlePacket(packet.data(),
                                                 packet.size()));
    EXPECT_EQ(std::get<proto::SensorReply>(*reply).status,
              proto::Status::UnknownComponent);
}

TEST_F(SensorFixture, ServiceCountsUndecodablePackets)
{
    uint8_t junk[proto::kMessageSize] = {1, 2, 3};
    EXPECT_FALSE(service_.handlePacket(junk, sizeof(junk)).has_value());
    EXPECT_EQ(service_.undecodable(), 1u);
}

TEST_F(SensorFixture, SensorClientReadsThroughLocalTransport)
{
    sensor::SensorClient client(
        std::make_unique<sensor::LocalTransport>(service_), "machine1");
    auto temperature = client.read("cpu");
    ASSERT_TRUE(temperature.has_value());
    EXPECT_NEAR(*temperature, solver_.temperature("machine1", "cpu"), 1e-9);
    EXPECT_FALSE(client.read("gpu").has_value());
}

TEST_F(SensorFixture, SensorClientFiddleRoundTrip)
{
    sensor::SensorClient client(
        std::make_unique<sensor::LocalTransport>(service_), "machine1");
    auto [ok, message] =
        client.fiddle("fiddle machine1 temperature inlet 35");
    EXPECT_TRUE(ok) << message;
    EXPECT_DOUBLE_EQ(solver_.machine("machine1").inletTemperature(), 35.0);

    auto [bad_ok, bad_message] = client.fiddle("machine1 bogus 1");
    EXPECT_FALSE(bad_ok);
    EXPECT_FALSE(bad_message.empty());
}

TEST_F(SensorFixture, NonFiniteInputsNeverReachTheSolver)
{
    // A NaN utilization packet is undecodable, not applied.
    proto::UtilizationUpdate update;
    update.machine = "machine1";
    update.component = "cpu";
    update.utilization = std::nan("");
    auto packet = proto::encode(update);
    EXPECT_FALSE(
        service_.handlePacket(packet.data(), packet.size()).has_value());
    EXPECT_EQ(service_.undecodable(), 1u);
    EXPECT_EQ(service_.updatesApplied(), 0u);

    // Non-finite fiddle values are bad commands.
    for (const char *line :
         {"machine1 utilization cpu nan", "machine1 temperature cpu nan",
          "machine1 fan inf"}) {
        proto::FiddleRequest request;
        request.requestId = 5;
        request.commandLine = line;
        auto request_packet = proto::encode(request);
        auto reply = proto::decode(*service_.handlePacket(
            request_packet.data(), request_packet.size()));
        ASSERT_TRUE(reply.has_value()) << line;
        EXPECT_EQ(std::get<proto::FiddleReply>(*reply).status,
                  proto::Status::BadCommand)
            << line;
    }

    solver_.run(10.0);
    for (const std::string &node : solver_.machine("machine1").nodeNames())
        EXPECT_TRUE(std::isfinite(solver_.temperature("machine1", node)))
            << node;
}

TEST_F(SensorFixture, CApiAgainstLocalService)
{
    installLocalSolver(&service_);
    int sd = opensensor_for("local", 8367, "machine1", "disk");
    ASSERT_GE(sd, 0);
    float temp = readsensor(sd);
    EXPECT_FALSE(std::isnan(temp));
    EXPECT_NEAR(temp, solver_.temperature("machine1", "disk_platters"),
                1e-3);
    closesensor(sd);
    // Reads on a closed descriptor fail cleanly.
    EXPECT_TRUE(std::isnan(readsensor(sd)));
    installLocalSolver(nullptr);
}

TEST_F(SensorFixture, CApiRejectsBadArguments)
{
    EXPECT_EQ(opensensor_for(nullptr, 8367, "m", "cpu"), -1);
    EXPECT_EQ(opensensor_for("local", 0, "m", "cpu"), -1);
    EXPECT_EQ(opensensor_for("local", 99999, "m", "cpu"), -1);
    EXPECT_TRUE(std::isnan(readsensor(123456)));
    closesensor(123456); // must not crash
}

TEST_F(SensorFixture, ClientReadManyBatchesIntoOneDatagram)
{
    auto transport = std::make_unique<sensor::FaultyTransport>(
        service_, net::FaultSpec{}, net::FaultSpec{});
    const sensor::TransportStats &stats = transport->stats();
    sensor::SensorClient client(std::move(transport), "machine1");

    std::vector<std::string> components{"cpu", "disk", "cpu_air"};
    auto values = client.readMany(components);
    ASSERT_EQ(values.size(), 3u);
    for (size_t i = 0; i < components.size(); ++i) {
        ASSERT_TRUE(values[i].has_value()) << components[i];
        EXPECT_NEAR(*values[i],
                    solver_.temperature("machine1", components[i]), 1e-9)
            << components[i];
    }
    // The whole poll fit one MultiReadRequest: one datagram, total.
    EXPECT_EQ(stats.attempts, 1u);
    EXPECT_EQ(service_.multiReads(), 1u);

    // Unknown components are per-entry failures, not poll failures.
    auto mixed = client.readMany({"cpu", "gpu"});
    ASSERT_EQ(mixed.size(), 2u);
    EXPECT_TRUE(mixed[0].has_value());
    EXPECT_FALSE(mixed[1].has_value());
}

TEST_F(SensorFixture, ClientReadManyChunksLargePolls)
{
    auto transport = std::make_unique<sensor::FaultyTransport>(
        service_, net::FaultSpec{}, net::FaultSpec{});
    const sensor::TransportStats &stats = transport->stats();
    sensor::SensorClient client(std::move(transport), "machine1");

    // More components than one packet carries: expect ceil(N/12)
    // datagrams, order preserved.
    std::vector<std::string> components;
    for (int i = 0; i < 15; ++i)
        components.push_back(i % 2 == 0 ? "cpu" : "disk");
    auto values = client.readMany(components);
    ASSERT_EQ(values.size(), components.size());
    for (size_t i = 0; i < components.size(); ++i) {
        ASSERT_TRUE(values[i].has_value()) << i;
        EXPECT_NEAR(*values[i],
                    solver_.temperature("machine1", components[i]), 1e-9);
    }
    EXPECT_EQ(stats.attempts, 2u);
}

TEST_F(SensorFixture, ClientReadManyDetailedKeepsFailureCauses)
{
    sensor::SensorClient client(
        std::make_unique<sensor::LocalTransport>(service_), "machine1");

    // One unknown component must not taint its chunk-mates, and must
    // carry the daemon's verdict rather than an anonymous failure.
    auto outcomes = client.readManyDetailed({"cpu", "gpu", "disk"});
    ASSERT_EQ(outcomes.size(), 3u);
    EXPECT_EQ(outcomes[0].status, proto::Status::Ok);
    ASSERT_TRUE(outcomes[0].value.has_value());
    EXPECT_NEAR(*outcomes[0].value,
                solver_.temperature("machine1", "cpu"), 1e-9);
    EXPECT_EQ(outcomes[1].status, proto::Status::UnknownComponent);
    EXPECT_FALSE(outcomes[1].value.has_value());
    EXPECT_FALSE(outcomes[1].noReply);
    EXPECT_EQ(outcomes[2].status, proto::Status::Ok);
    ASSERT_TRUE(outcomes[2].value.has_value());

    // A machine-level rejection stamps every component distinctly.
    sensor::SensorClient ghost(
        std::make_unique<sensor::LocalTransport>(service_), "ghost");
    auto rejected = ghost.readManyDetailed({"cpu", "disk"});
    ASSERT_EQ(rejected.size(), 2u);
    for (const auto &outcome : rejected) {
        EXPECT_FALSE(outcome.value.has_value());
        EXPECT_FALSE(outcome.noReply);
        EXPECT_EQ(outcome.status, proto::Status::UnknownMachine);
    }

    // readMany() is the same poll minus the causes.
    auto values = client.readMany({"cpu", "gpu"});
    ASSERT_EQ(values.size(), 2u);
    EXPECT_TRUE(values[0].has_value());
    EXPECT_FALSE(values[1].has_value());
}

TEST_F(SensorFixture, ClientReadDetailedSeparatesVerdictFromSilence)
{
    sensor::SensorClient client(
        std::make_unique<sensor::LocalTransport>(service_), "machine1");
    auto ok = client.readDetailed("cpu");
    EXPECT_EQ(ok.status, proto::Status::Ok);
    EXPECT_TRUE(ok.value.has_value());
    auto unknown = client.readDetailed("gpu");
    EXPECT_EQ(unknown.status, proto::Status::UnknownComponent);
    EXPECT_FALSE(unknown.noReply);
}

TEST(SensorUdp, ReadManyDetailedMarksTimeoutsAsNoReply)
{
    sensor::SensorClient client(
        std::make_unique<sensor::UdpTransport>("127.0.0.1", 1, 0.05, 0),
        "machine1");
    auto outcomes = client.readManyDetailed({"cpu"});
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_FALSE(outcomes[0].value.has_value());
    EXPECT_TRUE(outcomes[0].noReply); // a dropout, not a verdict
}

// Loses the first batched read on the way to the daemon (a restart,
// a failover, a dropped datagram), then answers everything.
class DropFirstBatchTransport final : public sensor::Transport
{
  public:
    explicit DropFirstBatchTransport(proto::SolverService &service)
        : inner_(service)
    {
    }

    std::optional<proto::Message>
    roundTrip(const proto::Packet &request) override
    {
        auto decoded = proto::decode(request);
        if (!dropped_ && decoded &&
            std::holds_alternative<proto::MultiReadRequest>(*decoded)) {
            dropped_ = true;
            return std::nullopt;
        }
        return inner_.roundTrip(request);
    }

  private:
    sensor::LocalTransport inner_;
    bool dropped_ = false;
};

TEST_F(SensorFixture, UnansweredBatchIsADropoutNotAFallback)
{
    sensor::SensorClient client(
        std::make_unique<DropFirstBatchTransport>(service_), "machine1");

    // The lost batch reports silence for its whole chunk, like an
    // unanswered single read — no per-sensor retry behind its back.
    auto lost = client.readManyDetailed({"cpu", "disk"});
    ASSERT_EQ(lost.size(), 2u);
    for (const auto &outcome : lost) {
        EXPECT_FALSE(outcome.value.has_value());
        EXPECT_TRUE(outcome.noReply);
    }
    EXPECT_EQ(service_.sensorReads(), 0u);

    // The next poll batches again: one MultiRead answers both.
    auto values = client.readMany({"cpu", "disk"});
    ASSERT_EQ(values.size(), 2u);
    EXPECT_TRUE(values[0].has_value());
    EXPECT_TRUE(values[1].has_value());
    EXPECT_EQ(service_.multiReads(), 1u);
}

class ShmSensorFixture : public SensorFixture
{
  protected:
    ShmSensorFixture()
        : shmName_("/mercury.sensortest." + std::to_string(::getpid()) +
                   "." + std::to_string(counter_++))
    {
        ::setenv("MERCURY_SHM_NAME", shmName_.c_str(), 1);
        installLocalSolver(&service_);
    }

    ~ShmSensorFixture() override
    {
        installLocalSolver(nullptr);
        ::unsetenv("MERCURY_SHM_NAME");
        telemetry::Reader::setClockForTest(nullptr);
    }

    std::string shmName_;
    static int counter_;
};

int ShmSensorFixture::counter_ = 0;

TEST_F(ShmSensorFixture, ReadsensorUsesShmWhenPresent)
{
    telemetry::Writer writer(shmName_, solver_, 1.0);
    ASSERT_TRUE(writer.valid());

    int sd = opensensor_for("local", 8367, "machine1", "cpu");
    ASSERT_GE(sd, 0);
    float temp = readsensor(sd);
    EXPECT_FALSE(std::isnan(temp));
    EXPECT_EQ(sensorpath(sd), MERCURY_SENSOR_PATH_SHM);
    EXPECT_NEAR(temp, solver_.temperature("machine1", "cpu"), 1e-3);

    // Aliases resolve through the segment's alias table too.
    int disk = opensensor_for("local", 8367, "machine1", "disk");
    ASSERT_GE(disk, 0);
    float disk_temp = readsensor(disk);
    EXPECT_EQ(sensorpath(disk), MERCURY_SENSOR_PATH_SHM);
    EXPECT_NEAR(disk_temp,
                solver_.temperature("machine1", "disk_platters"), 1e-3);

    closesensor(sd);
    closesensor(disk);
}

TEST_F(ShmSensorFixture, MissingSegmentFallsBackToTransport)
{
    // No writer: the identical call sequence degrades silently.
    int sd = opensensor_for("local", 8367, "machine1", "cpu");
    ASSERT_GE(sd, 0);
    float temp = readsensor(sd);
    EXPECT_FALSE(std::isnan(temp));
    EXPECT_EQ(sensorpath(sd), MERCURY_SENSOR_PATH_UDP);
    EXPECT_NEAR(temp, solver_.temperature("machine1", "cpu"), 1e-3);
    closesensor(sd);
}

TEST_F(ShmSensorFixture, NoShmEnvDisablesTheFastPath)
{
    telemetry::Writer writer(shmName_, solver_, 1.0);
    ::setenv("MERCURY_NO_SHM", "1", 1);
    int sd = opensensor_for("local", 8367, "machine1", "cpu");
    ::unsetenv("MERCURY_NO_SHM");
    ASSERT_GE(sd, 0);
    EXPECT_FALSE(std::isnan(readsensor(sd)));
    EXPECT_EQ(sensorpath(sd), MERCURY_SENSOR_PATH_UDP);
    closesensor(sd);
}

TEST_F(ShmSensorFixture, EveryPathAgreesOnTheTemperature)
{
    // The acceptance bar: shm, UDP-fallback and killed-writer reads
    // all report the same temperature for the same solver state.
    double expected = solver_.temperature("machine1", "cpu");

    auto writer =
        std::make_unique<telemetry::Writer>(shmName_, solver_, 1.0);
    int sd = opensensor_for("local", 8367, "machine1", "cpu");
    ASSERT_GE(sd, 0);

    float via_shm = readsensor(sd);
    ASSERT_EQ(sensorpath(sd), MERCURY_SENSOR_PATH_SHM);

    writer.reset(); // kill the writer: magic stomped, segment gone
    float via_fallback = readsensor(sd);
    ASSERT_EQ(sensorpath(sd), MERCURY_SENSOR_PATH_UDP);

    EXPECT_NEAR(via_shm, expected, 1e-6);
    EXPECT_NEAR(via_fallback, expected, 1e-6);
    EXPECT_FLOAT_EQ(via_shm, via_fallback);
    closesensor(sd);
}

TEST_F(ShmSensorFixture, StaleSegmentFallsBackThenRecovers)
{
    telemetry::Writer writer(shmName_, solver_, 1.0);
    uint64_t published = telemetry::monotonicNanos();

    // Freeze the staleness clock just after the publish.
    std::atomic<uint64_t> now{published + 1'000'000ULL};
    telemetry::Reader::setClockForTest([&now] { return now.load(); });

    int sd = opensensor_for("local", 8367, "machine1", "cpu");
    ASSERT_GE(sd, 0);
    readsensor(sd);
    ASSERT_EQ(sensorpath(sd), MERCURY_SENSOR_PATH_SHM);

    // Writer goes quiet past the threshold (4 x 1 s period): the same
    // descriptor silently degrades to the transport.
    now.store(published + 5'000'000'000ULL);
    float stale_read = readsensor(sd);
    EXPECT_FALSE(std::isnan(stale_read));
    EXPECT_EQ(sensorpath(sd), MERCURY_SENSOR_PATH_UDP);

    // A fresh publish heals it, no reopen required.
    writer.publish();
    now.store(telemetry::monotonicNanos() + 1'000'000ULL);
    readsensor(sd);
    EXPECT_EQ(sensorpath(sd), MERCURY_SENSOR_PATH_SHM);
    closesensor(sd);
}

TEST_F(ShmSensorFixture, ReadsensorsAnswersAllDescriptors)
{
    telemetry::Writer writer(shmName_, solver_, 1.0);
    int cpu = opensensor_for("local", 8367, "machine1", "cpu");
    int disk = opensensor_for("local", 8367, "machine1", "disk");
    int bogus = 999999;
    ASSERT_GE(cpu, 0);
    ASSERT_GE(disk, 0);

    int descriptors[3] = {cpu, disk, bogus};
    float temperatures[3] = {};
    EXPECT_EQ(readsensors(descriptors, temperatures, 3), 2);
    EXPECT_NEAR(temperatures[0],
                solver_.temperature("machine1", "cpu"), 1e-3);
    EXPECT_NEAR(temperatures[1],
                solver_.temperature("machine1", "disk_platters"), 1e-3);
    EXPECT_TRUE(std::isnan(temperatures[2]));
    EXPECT_EQ(sensorpath(cpu), MERCURY_SENSOR_PATH_SHM);

    EXPECT_EQ(readsensors(nullptr, temperatures, 1), -1);
    closesensor(cpu);
    closesensor(disk);
}

TEST_F(ShmSensorFixture, ReadsensorsBatchesTheFallback)
{
    // No shm segment: the group read collapses onto one batched
    // request per machine through the shared client.
    int cpu = opensensor_for("local", 8367, "machine1", "cpu");
    int disk = opensensor_for("local", 8367, "machine1", "disk");
    int descriptors[2] = {cpu, disk};
    float temperatures[2] = {};
    EXPECT_EQ(readsensors(descriptors, temperatures, 2), 2);
    EXPECT_EQ(sensorpath(cpu), MERCURY_SENSOR_PATH_UDP);
    EXPECT_EQ(service_.multiReads(), 1u);
    EXPECT_EQ(service_.sensorReads(), 2u); // both inside the one batch
    closesensor(cpu);
    closesensor(disk);
}

TEST_F(ShmSensorFixture, ConcurrentOpenReadCloseIsSafe)
{
    telemetry::Writer writer(shmName_, solver_, 1.0);

    // Several threads churning the C API against one registry while a
    // writer republishes: TSan's bread and butter.
    std::atomic<bool> stop{false};
    std::thread publisher([&] {
        while (!stop.load(std::memory_order_relaxed))
            writer.publish();
    });

    std::vector<std::thread> workers;
    std::atomic<int> failures{0};
    for (int t = 0; t < 4; ++t) {
        workers.emplace_back([&, t] {
            const char *component = t % 2 == 0 ? "cpu" : "disk";
            for (int i = 0; i < 200; ++i) {
                int sd = opensensor_for("local", 8367, "machine1",
                                        component);
                if (sd < 0) {
                    failures.fetch_add(1);
                    continue;
                }
                float temp = readsensor(sd);
                if (std::isnan(temp))
                    failures.fetch_add(1);
                int pair[1] = {sd};
                float out[1];
                if (readsensors(pair, out, 1) != 1)
                    failures.fetch_add(1);
                closesensor(sd);
            }
        });
    }
    for (std::thread &worker : workers)
        worker.join();
    stop.store(true, std::memory_order_relaxed);
    publisher.join();
    EXPECT_EQ(failures.load(), 0);
}

TEST(SensorUdp, EndToEndRoundTrip)
{
    core::Solver solver;
    solver.addMachine(core::table1Server("machine1"));
    solver.setUtilization("machine1", "cpu", 1.0);
    solver.run(5000.0);
    double expected = solver.temperature("machine1", "cpu_air");

    proto::SolverDaemon::Config config;
    config.port = 0;                 // ephemeral
    config.iterationSeconds = 0.0;   // no stepping during the test
    proto::SolverDaemon daemon(solver, config);
    std::thread server([&] { daemon.run(); });

    {
        sensor::SensorClient client(
            std::make_unique<sensor::UdpTransport>("127.0.0.1",
                                                   daemon.port()),
            "machine1");
        auto temperature = client.read("cpu_air");
        ASSERT_TRUE(temperature.has_value());
        EXPECT_NEAR(*temperature, expected, 1e-9);

        // Fiddle over UDP too.
        auto [ok, message] =
            client.fiddle("machine1 temperature inlet 30");
        EXPECT_TRUE(ok) << message;
    }

    daemon.stop();
    server.join();
    EXPECT_DOUBLE_EQ(solver.machine("machine1").inletTemperature(), 30.0);
    EXPECT_GE(daemon.service().sensorReads(), 1u);
}

TEST(SensorUdp, PaperCApiShape)
{
    // The exact call sequence of the paper's Figure 3, against a real
    // UDP daemon (machine name passed explicitly since the test host's
    // hostname is not a configured machine).
    core::Solver solver;
    solver.addMachine(core::table1Server("machine1"));

    proto::SolverDaemon::Config config;
    config.port = 0;
    config.iterationSeconds = 0.0;
    proto::SolverDaemon daemon(solver, config);
    std::thread server([&] { daemon.run(); });

    int sd = opensensor_for("127.0.0.1", daemon.port(), "machine1", "disk");
    ASSERT_GE(sd, 0);
    float temp = readsensor(sd);
    closesensor(sd);

    daemon.stop();
    server.join();
    EXPECT_FALSE(std::isnan(temp));
    EXPECT_NEAR(temp, 21.6, 0.5); // idle machine sits at the inlet temp
}

TEST(SensorUdp, TimeoutWhenNobodyListens)
{
    sensor::UdpTransport transport("127.0.0.1", 1, 0.05, 0);
    ASSERT_TRUE(transport.valid());
    proto::SensorRequest request{1, "m", "cpu"};
    EXPECT_FALSE(transport.roundTrip(proto::encode(request)).has_value());
}

TEST(SensorUdp, InvalidHostFailsGracefully)
{
    sensor::UdpTransport transport("no.such.host.invalid.", 8367);
    EXPECT_FALSE(transport.valid());
    EXPECT_EQ(opensensor("no.such.host.invalid.", 8367, "cpu"), -1);
}

} // namespace
} // namespace mercury
