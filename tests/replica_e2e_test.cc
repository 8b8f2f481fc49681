/**
 * @file
 * Hot-standby replication end to end, with real processes and real
 * UDP. A primary mercury_solverd streams its mutation WAL to a
 * standby; the test kill -9s the primary under live monitord load,
 * watches the standby promote itself within the lease, and proves the
 * promoted daemon's trajectory is bitwise identical to replaying the
 * standby's WAL into a fresh in-process solver. A second test runs the
 * pair under mercury_supervisord and watches the port-file flip.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "core/solver.hh"
#include "daemon_harness.hh"
#include "monitor/monitord.hh"
#include "proto/solver_service.hh"
#include "proto/wal_codec.hh"
#include "replica/wal.hh"
#include "state/checkpoint.hh"

namespace mercury {
namespace {

using namespace test;

std::string
configPath()
{
    return std::string(MERCURY_CONFIG_DIR) + "/table1_server.dot";
}

TEST(ReplicaE2E, Kill9PromotesStandbyWithinLeaseAndBitwiseMatchesWal)
{
    // The standby writes its port file only when it promotes, so its
    // serving port is named up front, like the replication port.
    const std::vector<uint16_t> ports = freeUdpPorts(2);
    const uint16_t standby_port = ports[0];
    const uint16_t replication_port = ports[1];
    const std::string port_file = tempPath("failover.port");
    const std::string wal_path = tempPath("failover.wal");
    const std::string checkpoint_path = tempPath("failover.ck");
    const double lease_seconds = 1.0;
    std::remove(port_file.c_str());
    std::remove(wal_path.c_str());
    std::remove((wal_path + ".old").c_str());
    std::remove(checkpoint_path.c_str());

    ProcessGuard primary;
    primary.pid = spawn({
        MERCURY_SOLVERD_BIN,
        "--config", configPath(),
        "--port", "0",
        "--port-file", port_file,
        "--iteration-seconds", "0.02",
        "--replication-port", std::to_string(replication_port),
        "--replica-heartbeat-seconds", "0.1",
        "--lease-seconds", std::to_string(lease_seconds),
        "--hash-iterations", "25",
        "--no-shm",
    });
    ASSERT_GT(primary.pid, 0);

    uint16_t primary_port = 0;
    for (int i = 0; i < 400 && primary_port == 0; ++i) {
        primary_port =
            static_cast<uint16_t>(std::atoi(readFile(port_file).c_str()));
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    ASSERT_GT(primary_port, 0) << "primary never wrote " << port_file;
    sensor::SensorClient primary_probe(
        std::make_unique<sensor::UdpTransport>("127.0.0.1", primary_port,
                                               0.1, 1),
        "server");
    bool up = false;
    for (int i = 0; i < 200 && !up; ++i)
        up = primary_probe.fiddle("stats").first;
    ASSERT_TRUE(up) << "primary never came up on port " << primary_port;

    // The standby keeps its own WAL (the primary-numbered stream) and
    // checkpoint. The checkpoint timer stays out of the test window so
    // the standby's WAL rotates exactly once: at promotion.
    ProcessGuard standby;
    standby.pid = spawn({
        MERCURY_SOLVERD_BIN,
        "--config", configPath(),
        "--port", std::to_string(standby_port),
        "--iteration-seconds", "0.02",
        "--replica-of", "127.0.0.1:" + std::to_string(replication_port),
        "--replication-port", "0",
        "--replica-heartbeat-seconds", "0.1",
        "--lease-seconds", std::to_string(lease_seconds),
        "--hash-iterations", "25",
        "--wal-path", wal_path,
        "--checkpoint-path", checkpoint_path,
        "--checkpoint-seconds", "600",
        "--no-shm",
    });
    ASSERT_GT(standby.pid, 0);

    sensor::SensorClient standby_probe(
        std::make_unique<sensor::UdpTransport>("127.0.0.1", standby_port,
                                               0.1, 1),
        "server");
    std::string replica_line;
    ASSERT_TRUE(waitForReplicaLine(standby_probe, "role=standby", 10.0,
                                   &replica_line))
        << replica_line;

    // Live monitord load against the primary over real UDP.
    auto source = std::make_unique<monitor::SyntheticSource>();
    source->addComponent("cpu", [](double t) {
        return 0.25 + 0.5 * (long(t) % 3 == 0);
    });
    monitor::UpdateBatcher batcher(
        std::make_shared<net::UdpSocket>(),
        {*net::resolveHost("127.0.0.1"), primary_port});
    monitor::Monitord monitord("server", std::move(source),
                               batcher.sink());

    double tick_clock = 0.0;
    auto tick = [&](int rounds) {
        for (int i = 0; i < rounds; ++i) {
            monitord.setOnline(true);
            monitord.tick(tick_clock);
            batcher.flush();
            tick_clock += 1.0;
            std::this_thread::sleep_for(std::chrono::milliseconds(40));
        }
    };

    // Run under load until mutations replicate and a state-hash check
    // confirms the shadow is bitwise-live.
    bool streaming = false;
    for (int i = 0; i < 400 && !streaming; ++i) {
        tick(1);
        auto [ok, line] = standby_probe.fiddle("replica");
        replica_line = line;
        streaming = ok && line.find("hash=ok") != std::string::npos &&
                    line.find("applied=0 ") == std::string::npos;
    }
    ASSERT_TRUE(streaming)
        << "standby never verified a state hash: " << replica_line;

    // Chaos: kill -9 the primary mid-load.
    ASSERT_EQ(::kill(primary.pid, SIGKILL), 0);
    auto kill_time = std::chrono::steady_clock::now();
    ::waitpid(primary.pid, nullptr, 0);
    primary.disarm();
    tick(5); // load keeps arriving at the dead primary's port

    // The standby must promote itself once the lease runs dry. Allow
    // generous slack over the lease for a loaded CI box, but measure.
    ASSERT_TRUE(waitForReplicaLine(standby_probe, "role=primary",
                                   lease_seconds + 8.0, &replica_line))
        << "standby never promoted: " << replica_line;
    double promotion_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      kill_time)
            .count();
    EXPECT_LE(promotion_seconds, lease_seconds + 8.0);

    // The promoted daemon serves writes again (read-only gate lifted).
    {
        auto [ok, line] = standby_probe.fiddle("server fan 100");
        EXPECT_TRUE(ok) << line;
    }

    // Let the promoted daemon run on a little, then shut down cleanly;
    // it writes its final checkpoint on the way out.
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    ASSERT_EQ(::kill(standby.pid, SIGTERM), 0);
    auto status = waitForExit(standby.pid, 15.0);
    ASSERT_TRUE(status.has_value()) << "standby did not exit";
    standby.disarm();
    ASSERT_TRUE(WIFEXITED(*status));
    EXPECT_EQ(WEXITSTATUS(*status), 0);

    // The promoted daemon's final state, as durably checkpointed.
    state::Checkpoint final_state;
    std::string error;
    ASSERT_TRUE(
        state::loadCheckpointFile(checkpoint_path, &final_state, &error))
        << error;
    ASSERT_EQ(final_state.machines.size(), 1u);

    // Promotion rotated the standby's WAL, so generation 1 — every
    // record replicated from the dead primary, closed by the Promotion
    // marker — survives at <wal>.old, and the current file holds the
    // post-promotion generation. Replaying both into a fresh solver
    // must land bitwise on the promoted daemon's checkpoint: same
    // inputs at the same iteration boundaries, same deterministic
    // solver, same bits.
    core::SolverConfig replay_config;
    replay_config.iterationSeconds = 0.02;
    core::Solver replayed(replay_config);
    replayed.addMachine(core::table1Server("server"));
    proto::SolverService replay_service(replayed);
    auto apply = [&](const replica::WalRecord &record) {
        auto message = proto::decodeWalMutation(record.payload.data(),
                                                record.payload.size());
        ASSERT_TRUE(message.has_value());
        replay_service.handleReplicated(*message);
    };

    replica::WalReadResult generation1;
    ASSERT_TRUE(
        replica::readWalFile(wal_path + ".old", &generation1, &error))
        << error;
    ASSERT_TRUE(generation1.tailOk) << generation1.tailError;
    ASSERT_FALSE(generation1.records.empty());
    EXPECT_EQ(generation1.records.back().kind,
              replica::WalRecordKind::Promotion);
    replica::ReplayStats stats;
    ASSERT_TRUE(replica::replayWal(replayed, generation1, apply, 0,
                                   &stats, &error))
        << error;
    EXPECT_GT(stats.applied, 0u);

    replica::WalReadResult generation2;
    ASSERT_TRUE(replica::readWalFile(wal_path, &generation2, &error))
        << error;
    ASSERT_TRUE(generation2.tailOk) << generation2.tailError;
    EXPECT_EQ(generation2.header.startIteration, replayed.iterations());
    ASSERT_TRUE(replica::replayWal(replayed, generation2, apply,
                                   final_state.iterations, &stats,
                                   &error))
        << error;

    EXPECT_EQ(replayed.iterations(), final_state.iterations);
    state::Checkpoint want = state::captureSolver(replayed);
    ASSERT_EQ(want.machines.size(), 1u);
    ASSERT_EQ(final_state.machines[0].temperatures.size(),
              want.machines[0].temperatures.size());
    for (size_t i = 0; i < want.machines[0].temperatures.size(); ++i) {
        EXPECT_EQ(final_state.machines[0].temperatures[i],
                  want.machines[0].temperatures[i]) // bitwise
            << "node " << i;
    }
    EXPECT_EQ(final_state.machines[0].energyConsumed,
              want.machines[0].energyConsumed);

    std::remove(port_file.c_str());
    std::remove(wal_path.c_str());
    std::remove((wal_path + ".old").c_str());
    std::remove(checkpoint_path.c_str());
}

TEST(ReplicaE2E, SupervisordHaPairFlipsThePortFileOnFailover)
{
    const std::vector<uint16_t> ports = freeUdpPorts(3);
    const uint16_t primary_port = ports[0];
    const uint16_t standby_port = ports[1];
    const uint16_t replication_port = ports[2];
    const std::string port_file = tempPath("portfile");
    const std::string metrics_file = tempPath("supervisor.prom");
    std::remove(port_file.c_str());
    std::remove(metrics_file.c_str());

    ProcessGuard supervisor;
    supervisor.pid = spawn({
        MERCURY_SUPERVISORD_BIN,
        "--solver-port", std::to_string(primary_port),
        "--standby-solver-port", std::to_string(standby_port),
        "--port-file", port_file,
        "--metrics-path", metrics_file,
        "--probe-seconds", "0.2",
        "--stall-seconds", "30",
        "--initial-backoff", "0.5",
        "--max-backoff", "1.0",
        "--",
        MERCURY_SOLVERD_BIN,
        "--config", configPath(),
        "--port", std::to_string(primary_port),
        "--iteration-seconds", "0.02",
        "--replication-port", std::to_string(replication_port),
        "--replica-heartbeat-seconds", "0.1",
        "--lease-seconds", "1.0",
        "--no-shm",
        "---",
        MERCURY_SOLVERD_BIN,
        "--config", configPath(),
        "--port", std::to_string(standby_port),
        "--iteration-seconds", "0.02",
        "--replica-of", "127.0.0.1:" + std::to_string(replication_port),
        "--replication-port", "0",
        "--replica-heartbeat-seconds", "0.1",
        "--lease-seconds", "1.0",
        "--no-shm",
    });
    ASSERT_GT(supervisor.pid, 0);

    // The supervisor advertises the primary first.
    bool advertised = false;
    for (int i = 0; i < 200 && !advertised; ++i) {
        advertised = readFile(port_file) == std::to_string(primary_port);
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    ASSERT_TRUE(advertised)
        << "port-file never advertised the primary: '"
        << readFile(port_file) << "'";

    sensor::SensorClient standby_probe(
        std::make_unique<sensor::UdpTransport>("127.0.0.1", standby_port,
                                               0.1, 1),
        "server");
    // Wait for the standby to attach, not just to answer: one that
    // never reached its primary refuses to promote by design, and the
    // primary may bind its replication port after the standby's first
    // hello (the next one goes out 0.5 s later).
    std::string replica_line;
    ASSERT_TRUE(waitForReplicaLine(standby_probe,
                                   "role=standby state=attached", 10.0,
                                   &replica_line))
        << replica_line;

    // kill -9 the primary solverd (identified by its --port argument,
    // since the supervisor has two solverd children).
    pid_t primary_pid = findChildOf(supervisor.pid, "--port",
                                    std::to_string(primary_port));
    ASSERT_GT(primary_pid, 0) << "cannot find the primary child";
    ASSERT_EQ(::kill(primary_pid, SIGKILL), 0);

    // The supervisor must flip the port-file to the standby...
    bool flipped = false;
    for (int i = 0; i < 300 && !flipped; ++i) {
        flipped = readFile(port_file) == std::to_string(standby_port);
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    ASSERT_TRUE(flipped) << "port-file never flipped: '"
                         << readFile(port_file) << "'";

    // ...and the standby must have promoted to primary.
    ASSERT_TRUE(waitForReplicaLine(standby_probe, "role=primary", 10.0,
                                   &replica_line))
        << "standby never promoted: " << replica_line;

    ASSERT_EQ(::kill(supervisor.pid, SIGTERM), 0);
    auto status = waitForExit(supervisor.pid, 15.0);
    ASSERT_TRUE(status.has_value()) << "supervisor did not exit";
    supervisor.disarm();
    ASSERT_TRUE(WIFEXITED(*status));
    EXPECT_EQ(WEXITSTATUS(*status), 0);

    // HA mode writes --metrics-path too, last at shutdown.
    std::string metrics = readFile(metrics_file) + "\n";
    EXPECT_NE(metrics.find("\nsupervisor_failovers_total 1\n"),
              std::string::npos)
        << "metrics file: '" << metrics << "'";

    std::remove(port_file.c_str());
    std::remove(metrics_file.c_str());
}

TEST(ReplicaE2E, FailoverDoesNotWaitOutTheStandbysBackoff)
{
    // The standby command exits at once (its config does not exist),
    // so the standby sits out a 10 s restart backoff when the primary
    // dies. The supervisor must keep watching the primary meanwhile,
    // flip the port file at once and start the standby right away.
    const std::vector<uint16_t> ports = freeUdpPorts(2);
    const uint16_t primary_port = ports[0];
    const uint16_t standby_port = ports[1];
    const std::string port_file = tempPath("backoff.port");
    const std::string metrics_file = tempPath("backoff.prom");
    std::remove(port_file.c_str());
    std::remove(metrics_file.c_str());

    ProcessGuard supervisor;
    supervisor.pid = spawn({
        MERCURY_SUPERVISORD_BIN,
        "--solver-port", std::to_string(primary_port),
        "--standby-solver-port", std::to_string(standby_port),
        "--port-file", port_file,
        "--metrics-path", metrics_file,
        "--probe-seconds", "0",
        "--initial-backoff", "10",
        "--max-backoff", "10",
        "--",
        MERCURY_SOLVERD_BIN,
        "--config", configPath(),
        "--port", std::to_string(primary_port),
        "--iteration-seconds", "0.02",
        "--no-shm",
        "---",
        MERCURY_SOLVERD_BIN,
        "--config", tempPath("missing.dot"),
        "--port", std::to_string(standby_port),
        "--no-shm",
    });
    ASSERT_GT(supervisor.pid, 0);

    // The standby's exit is counted before its backoff starts.
    bool backing_off = false;
    for (int i = 0; i < 200 && !backing_off; ++i) {
        backing_off = (readFile(metrics_file) + "\n")
                          .find("\nsupervisor_restarts_total 1\n") !=
                      std::string::npos;
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    ASSERT_TRUE(backing_off) << readFile(metrics_file);
    ASSERT_EQ(readFile(port_file), std::to_string(primary_port));

    pid_t primary_pid = findChildOf(supervisor.pid, "--port",
                                    std::to_string(primary_port));
    ASSERT_GT(primary_pid, 0) << "cannot find the primary child";
    ASSERT_EQ(::kill(primary_pid, SIGKILL), 0);
    auto kill_time = std::chrono::steady_clock::now();
    bool flipped = false;
    for (int i = 0; i < 300 && !flipped; ++i) {
        flipped = readFile(port_file) == std::to_string(standby_port);
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    double flip_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      kill_time)
            .count();
    ASSERT_TRUE(flipped) << "port-file never flipped: '"
                         << readFile(port_file) << "'";
    EXPECT_LE(flip_seconds, 3.0);

    ASSERT_EQ(::kill(supervisor.pid, SIGTERM), 0);
    auto status = waitForExit(supervisor.pid, 15.0);
    ASSERT_TRUE(status.has_value()) << "supervisor did not exit";
    supervisor.disarm();
    ASSERT_TRUE(WIFEXITED(*status));
    EXPECT_EQ(WEXITSTATUS(*status), 0);

    std::remove(port_file.c_str());
    std::remove(metrics_file.c_str());
}

} // namespace
} // namespace mercury
