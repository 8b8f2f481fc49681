/**
 * @file
 * End-to-end tests of the deployed shape over real UDP: monitord
 * ships utilization updates to a live SolverDaemon, the sensor
 * library reads temperatures back, and fiddle injects an emergency —
 * the full Figure 2 data flow in one process.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "core/solver.hh"
#include "daemon_harness.hh"
#include "graphdot/parser.hh"
#include "monitor/monitord.hh"
#include "proto/solver_daemon.hh"
#include "sensor/sensor_api.hh"
#include "state/checkpoint.hh"

namespace mercury {
namespace {

using namespace test;

TEST(DaemonE2E, MonitordSensorAndFiddleOverUdp)
{
    // While a daemon serves the solver, its thread owns it: this
    // thread reads through the daemon (sensor reads, service counters)
    // and touches the solver directly only after stop().
    core::Solver solver;
    solver.addMachine(core::table1Server("m1"));

    proto::SolverDaemon::Config config;
    config.port = 0;
    config.iterationSeconds = 0.0; // stepped manually below
    auto daemon = std::make_unique<proto::SolverDaemon>(solver, config);
    std::thread server([&] { daemon->run(); });

    // monitord with a synthetic source, shipping over real UDP.
    auto source = std::make_unique<monitor::SyntheticSource>();
    source->addComponent("cpu", [](double) { return 0.8; });
    source->addComponent("disk", [](double) { return 0.3; });
    monitor::UpdateBatcher batcher(
        std::make_shared<net::UdpSocket>(),
        {*net::resolveHost("127.0.0.1"), daemon->port()});
    monitor::Monitord monitord("m1", std::move(source), batcher.sink());
    monitord.tick(1.0);
    batcher.flush();

    // UDP is asynchronous: wait for the updates to land.
    for (int i = 0; i < 200; ++i) {
        if (daemon->service().updatesApplied() >= 2)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_EQ(daemon->service().updatesApplied(), 2u);

    // Sensor read over the same socket family.
    auto client = std::make_unique<sensor::SensorClient>(
        std::make_unique<sensor::UdpTransport>("127.0.0.1",
                                               daemon->port()),
        "m1");
    auto before = client->read("cpu");
    ASSERT_TRUE(before.has_value());

    // Fiddle an emergency.
    auto [ok, message] = client->fiddle("m1 temperature inlet 35");
    ASSERT_TRUE(ok) << message;
    daemon->stop();
    server.join();

    // The daemon is gone: the solver is this thread's. Check the
    // updates it applied, then step it and watch the CPU heat up
    // through a second daemon over the same solver.
    EXPECT_DOUBLE_EQ(solver.machine("m1").utilization("cpu"), 0.8);
    EXPECT_DOUBLE_EQ(
        solver.machine("m1").utilization("disk_platters"), 0.3);
    for (int i = 0; i < 2000; ++i)
        solver.iterate();
    daemon = std::make_unique<proto::SolverDaemon>(solver, config);
    server = std::thread([&] { daemon->run(); });
    client = std::make_unique<sensor::SensorClient>(
        std::make_unique<sensor::UdpTransport>("127.0.0.1",
                                               daemon->port()),
        "m1");
    auto after = client->read("cpu");
    ASSERT_TRUE(after.has_value());
    EXPECT_GT(*after, *before + 5.0);

    daemon->stop();
    server.join();
}

TEST(DaemonE2E, ShmFastPathAgreesWithUdpAndSurvivesWriterDeath)
{
    core::Solver solver;
    solver.addMachine(core::table1Server("m1"));
    solver.setUtilization("m1", "cpu", 1.0);
    solver.run(5000.0);

    std::string shm_name =
        "/mercury.e2e." + std::to_string(::getpid());

    // Two daemons serve the same solver: one publishes the telemetry
    // segment, the other stays shm-less so UDP keeps answering after
    // the writer dies.
    proto::SolverDaemon::Config with_shm;
    with_shm.port = 0;
    with_shm.iterationSeconds = 0.0;
    with_shm.shmName = shm_name;
    auto publisher =
        std::make_unique<proto::SolverDaemon>(solver, with_shm);
    ASSERT_NE(publisher->telemetryWriter(), nullptr);
    std::thread publisher_thread([&] { publisher->run(); });

    proto::SolverDaemon::Config plain;
    plain.port = 0;
    plain.iterationSeconds = 0.0;
    proto::SolverDaemon fallback(solver, plain);
    EXPECT_EQ(fallback.telemetryWriter(), nullptr);
    std::thread fallback_thread([&] { fallback.run(); });

    ::setenv("MERCURY_SHM_NAME", shm_name.c_str(), 1);

    // Shm enabled: the segment answers, no datagram leaves the box.
    int sd = opensensor_for("127.0.0.1", fallback.port(), "m1", "cpu");
    ASSERT_GE(sd, 0);
    float via_shm = readsensor(sd);
    ASSERT_FALSE(std::isnan(via_shm));
    EXPECT_EQ(sensorpath(sd), MERCURY_SENSOR_PATH_SHM);

    // Shm disabled by the environment: same call over real UDP.
    ::setenv("MERCURY_NO_SHM", "1", 1);
    int sd_udp = opensensor_for("127.0.0.1", fallback.port(), "m1",
                                "cpu");
    ::unsetenv("MERCURY_NO_SHM");
    ASSERT_GE(sd_udp, 0);
    float via_udp = readsensor(sd_udp);
    ASSERT_FALSE(std::isnan(via_udp));
    EXPECT_EQ(sensorpath(sd_udp), MERCURY_SENSOR_PATH_UDP);
    EXPECT_FLOAT_EQ(via_shm, via_udp);

    // Kill the writer: the open descriptor silently degrades to UDP
    // and keeps reporting the same temperature.
    publisher->stop();
    publisher_thread.join();
    publisher.reset();
    float after_death = readsensor(sd);
    ASSERT_FALSE(std::isnan(after_death));
    EXPECT_EQ(sensorpath(sd), MERCURY_SENSOR_PATH_UDP);
    EXPECT_FLOAT_EQ(after_death, via_shm);

    ::unsetenv("MERCURY_SHM_NAME");
    closesensor(sd);
    closesensor(sd_udp);
    fallback.stop();
    fallback_thread.join();
}

TEST(DaemonE2E, DaemonStepsInWallClockTime)
{
    core::Solver solver;
    solver.addMachine(core::table1Server("m1"));
    solver.setUtilization("m1", "cpu", 1.0);

    proto::SolverDaemon::Config config;
    config.port = 0;
    config.iterationSeconds = 0.02; // fast wall-clock stepping
    proto::SolverDaemon daemon(solver, config);
    std::thread server([&] { daemon.run(); });
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    daemon.stop();
    server.join();
    // ~15 iterations expected; accept a broad band (CI jitter).
    EXPECT_GE(solver.iterations(), 5u);
    EXPECT_LE(solver.iterations(), 60u);
}

TEST(ShippedConfigs, Table1ServerFileMatchesBuiltin)
{
    core::ConfigSpec config = graphdot::loadConfigFile(
        std::string(MERCURY_CONFIG_DIR) + "/table1_server.dot");
    ASSERT_EQ(config.machines.size(), 1u);
    EXPECT_FALSE(config.room.has_value());

    core::MachineSpec expected = core::table1Server("server");
    const core::MachineSpec &loaded = config.machines[0];
    EXPECT_EQ(loaded.name, expected.name);
    EXPECT_DOUBLE_EQ(loaded.fanCfm, expected.fanCfm);
    EXPECT_DOUBLE_EQ(loaded.inletTemperature, expected.inletTemperature);
    ASSERT_EQ(loaded.nodes.size(), expected.nodes.size());
    ASSERT_EQ(loaded.heatEdges.size(), expected.heatEdges.size());
    ASSERT_EQ(loaded.airEdges.size(), expected.airEdges.size());
    for (const core::NodeSpec &node : expected.nodes) {
        const core::NodeSpec *copy = loaded.findNode(node.name);
        ASSERT_NE(copy, nullptr) << node.name;
        EXPECT_EQ(copy->kind, node.kind) << node.name;
        EXPECT_DOUBLE_EQ(copy->mass, node.mass) << node.name;
        EXPECT_DOUBLE_EQ(copy->specificHeat, node.specificHeat)
            << node.name;
        EXPECT_EQ(copy->hasPower, node.hasPower) << node.name;
        EXPECT_DOUBLE_EQ(copy->minPower, node.minPower) << node.name;
        EXPECT_DOUBLE_EQ(copy->maxPower, node.maxPower) << node.name;
    }
    for (const core::HeatEdgeSpec &edge : expected.heatEdges) {
        bool found = false;
        for (const core::HeatEdgeSpec &candidate : loaded.heatEdges) {
            if (candidate.a == edge.a && candidate.b == edge.b) {
                EXPECT_DOUBLE_EQ(candidate.k, edge.k)
                    << edge.a << "--" << edge.b;
                found = true;
            }
        }
        EXPECT_TRUE(found) << edge.a << "--" << edge.b;
    }
}

TEST(ShippedConfigs, Table1ClusterFileBuildsAWorkingSolver)
{
    core::ConfigSpec config = graphdot::loadConfigFile(
        std::string(MERCURY_CONFIG_DIR) + "/table1_cluster.dot");
    ASSERT_EQ(config.machines.size(), 4u);
    ASSERT_TRUE(config.room.has_value());

    core::Solver solver;
    for (const core::MachineSpec &machine : config.machines)
        solver.addMachine(machine);
    solver.setRoom(*config.room);
    solver.setUtilization("m2", "cpu", 1.0);
    solver.run(5000.0);
    EXPECT_NEAR(solver.machine("m1").inletTemperature(), 18.0, 1e-9);
    EXPECT_GT(solver.temperature("m2", "cpu"),
              solver.temperature("m3", "cpu") + 5.0);
    EXPECT_GT(solver.room().temperature("cluster_exhaust"), 18.0);
}

TEST(DaemonE2E, SigtermAsSoonAsThePortFileAppearsIsGraceful)
{
    std::string port_file = tempPath("sigterm.port");
    std::string checkpoint = tempPath("sigterm.ck");
    std::string segment = "/mercury_daemon_e2e." + std::to_string(::getpid());
    std::remove(port_file.c_str());
    std::remove(checkpoint.c_str());
    std::string config = std::string(MERCURY_CONFIG_DIR) +
                         "/table1_cluster.dot";
    ProcessGuard solverd;
    solverd.pid = spawn({MERCURY_SOLVERD_BIN, "--config", config,
                         "--port", "0", "--port-file", port_file,
                         "--checkpoint-path", checkpoint, "--shm-name",
                         segment, "--iteration-seconds", "0.05"});
    ASSERT_GT(solverd.pid, 0);

    // Signal the moment the file exists: the daemon must already be
    // committed to the graceful path by then.
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    bool appeared = false;
    while (std::chrono::steady_clock::now() < deadline) {
        if (::access(port_file.c_str(), F_OK) == 0) {
            appeared = true;
            break;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    ::kill(solverd.pid, SIGTERM);
    auto status = waitForExit(solverd.pid, 20.0);
    ASSERT_TRUE(appeared) << "no port file from " << MERCURY_SOLVERD_BIN;
    ASSERT_TRUE(status.has_value()) << "solverd ignored SIGTERM";
    solverd.disarm();
    ASSERT_TRUE(WIFEXITED(*status)) << "killed by signal "
                                    << WTERMSIG(*status);
    EXPECT_EQ(WEXITSTATUS(*status), 0);

    // The final checkpoint was written and restores into a solver
    // built from the same config.
    state::Checkpoint saved;
    std::string error;
    ASSERT_TRUE(state::loadCheckpointFile(checkpoint, &saved, &error))
        << error;
    core::ConfigSpec spec = graphdot::loadConfigFile(config);
    core::SolverConfig same_period;
    same_period.iterationSeconds = 0.05;
    core::Solver restored(same_period);
    for (const core::MachineSpec &machine : spec.machines)
        restored.addMachine(machine);
    restored.setRoom(*spec.room);
    EXPECT_TRUE(state::restoreSolver(restored, saved, &error)) << error;

    // The telemetry segment was unlinked on the way out.
    EXPECT_NE(::access(("/dev/shm" + segment).c_str(), F_OK), 0);
    std::remove(port_file.c_str());
    std::remove(checkpoint.c_str());
}

} // namespace
} // namespace mercury
