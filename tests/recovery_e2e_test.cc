/**
 * @file
 * Supervised crash-recovery end to end, with real processes and real
 * UDP: mercury_supervisord keeps a mercury_solverd alive; the test
 * kill -9s the solver mid-run under live monitord load, watches the
 * supervisor restart it from the latest checkpoint, watches monitord
 * replay its outage backlog, and finally compares the recovered
 * trajectory against an uninterrupted in-process reference.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>

#include "core/solver.hh"
#include "daemon_harness.hh"
#include "monitor/monitord.hh"
#include "state/checkpoint.hh"

namespace mercury {
namespace {

using namespace test;

TEST(RecoveryE2E, Kill9MidRunRestartsFromCheckpointAndReplaysBacklog)
{
    const uint16_t port = freeUdpPorts(1)[0];
    const std::string checkpoint_path = tempPath("chaos");
    std::remove(checkpoint_path.c_str());

    ProcessGuard supervisor;
    supervisor.pid = spawn({
        MERCURY_SUPERVISORD_BIN,
        "--solver-port", std::to_string(port),
        "--probe-seconds", "0.2",
        "--stall-seconds", "30",
        // Long enough downtime that monitord reliably sees the outage.
        "--initial-backoff", "0.5",
        "--max-backoff", "1.0",
        "--",
        MERCURY_SOLVERD_BIN,
        "--config", std::string(MERCURY_CONFIG_DIR) + "/table1_server.dot",
        "--port", std::to_string(port),
        "--iteration-seconds", "0.02",
        "--checkpoint-path", checkpoint_path,
        "--checkpoint-seconds", "0.25",
        // Quiescence enabled across the kill/restore cycle: restore
        // must wake the fleet and still converge within 0.1 degC.
        "--quiescence-epsilon", "0.05",
        "--quiescence-refresh", "32",
        "--no-shm",
    });
    ASSERT_GT(supervisor.pid, 0);

    // Wait for the daemon to answer.
    sensor::SensorClient probe(
        std::make_unique<sensor::UdpTransport>("127.0.0.1", port, 0.1, 1),
        "server");
    bool up = false;
    for (int i = 0; i < 200 && !up; ++i)
        up = probe.fiddle("stats").first;
    ASSERT_TRUE(up) << "solverd never came up on port " << port;

    // monitord load: constant cpu utilization over real UDP, with the
    // outage backlog enabled.
    auto source = std::make_unique<monitor::SyntheticSource>();
    source->addComponent("cpu", [](double) { return 1.0; });
    monitor::UpdateBatcher batcher(
        std::make_shared<net::UdpSocket>(),
        {*net::resolveHost("127.0.0.1"), port});
    monitor::Monitord monitord("server", std::move(source),
                               batcher.sink());
    monitord.enableBacklog({600, monitor::Monitord::GapFillPolicy::Replay});

    double tick_clock = 0.0;
    auto tick = [&](int rounds) {
        for (int i = 0; i < rounds; ++i) {
            monitord.setOnline(probe.fiddle("stats").first);
            monitord.tick(tick_clock);
            batcher.flush();
            tick_clock += 1.0;
            std::this_thread::sleep_for(std::chrono::milliseconds(40));
        }
    };

    // Run under load until at least one checkpoint has been written.
    state::Checkpoint mid;
    bool checkpointed = false;
    for (int i = 0; i < 100 && !checkpointed; ++i) {
        tick(1);
        std::string error;
        checkpointed =
            state::loadCheckpointFile(checkpoint_path, &mid, &error) &&
            mid.iterations > 0;
    }
    ASSERT_TRUE(checkpointed) << "no checkpoint appeared";

    // Chaos: kill -9 the solver out from under the supervisor.
    pid_t solverd = findChildOf(supervisor.pid);
    ASSERT_GT(solverd, 0) << "cannot find the supervised solverd";
    ASSERT_EQ(::kill(solverd, SIGKILL), 0);

    // Keep the load coming; monitord must notice the outage and queue.
    bool went_offline = false;
    for (int i = 0; i < 150 && !went_offline; ++i) {
        tick(1);
        went_offline = !monitord.online();
    }
    EXPECT_TRUE(went_offline) << "monitord never noticed the outage";

    // The supervisor restarts the solver; monitord reconnects and
    // replays its backlog.
    bool recovered = false;
    for (int i = 0; i < 300 && !recovered; ++i) {
        tick(1);
        recovered = monitord.online();
    }
    ASSERT_TRUE(recovered) << "solverd never came back";
    EXPECT_GT(monitord.backlogReplayed(), 0u);
    EXPECT_EQ(monitord.backlogDepth(), 0u);

    // The restarted daemon restored the checkpoint and kept going.
    tick(10);
    auto [ok, stats] = probe.fiddle("stats");
    ASSERT_TRUE(ok) << stats;
    long long restored_at = statsField(stats, "rit");
    EXPECT_GT(restored_at, 0) << stats;
    EXPECT_GE(statsField(stats, "it"), restored_at) << stats;
    EXPECT_GE(statsField(stats, "ck"), 0) << stats;

    // Graceful shutdown: the supervisor forwards SIGTERM, the child
    // writes its final checkpoint, everyone exits 0.
    ASSERT_EQ(::kill(supervisor.pid, SIGTERM), 0);
    auto status = waitForExit(supervisor.pid, 15.0);
    ASSERT_TRUE(status.has_value()) << "supervisor did not exit";
    supervisor.disarm();
    ASSERT_TRUE(WIFEXITED(*status));
    EXPECT_EQ(WEXITSTATUS(*status), 0);

    // The final checkpoint continues the pre-crash trajectory...
    state::Checkpoint final_state;
    std::string error;
    ASSERT_TRUE(
        state::loadCheckpointFile(checkpoint_path, &final_state, &error))
        << error;
    EXPECT_GT(final_state.iterations, mid.iterations);

    // ...and stays within 0.1 degC of an uninterrupted in-process
    // reference advanced to the same iteration count under the same
    // load.
    core::SolverConfig reference_config;
    reference_config.iterationSeconds = 0.02;
    core::Solver reference(reference_config);
    reference.addMachine(core::table1Server("server"));
    reference.setUtilization("server", "cpu", 1.0);
    for (uint64_t i = 0; i < final_state.iterations; ++i)
        reference.iterate();
    state::Checkpoint want = state::captureSolver(reference);
    ASSERT_EQ(final_state.machines.size(), 1u);
    ASSERT_EQ(final_state.machines[0].temperatures.size(),
              want.machines[0].temperatures.size());
    for (size_t i = 0; i < want.machines[0].temperatures.size(); ++i) {
        EXPECT_NEAR(final_state.machines[0].temperatures[i],
                    want.machines[0].temperatures[i], 0.1)
            << "node " << i;
    }

    std::remove(checkpoint_path.c_str());
}

TEST(RecoveryE2E, SupervisorGivesUpOnACrashLoop)
{
    ProcessGuard supervisor;
    supervisor.pid = spawn({
        MERCURY_SUPERVISORD_BIN,
        "--probe-seconds", "0",
        "--initial-backoff", "0.05",
        "--max-backoff", "0.1",
        "--crash-loop-threshold", "3",
        "--crash-loop-window", "60",
        "--",
        "/bin/false",
    });
    ASSERT_GT(supervisor.pid, 0);
    auto status = waitForExit(supervisor.pid, 15.0);
    ASSERT_TRUE(status.has_value()) << "supervisor never gave up";
    supervisor.disarm();
    ASSERT_TRUE(WIFEXITED(*status));
    EXPECT_NE(WEXITSTATUS(*status), 0);
}

TEST(RecoveryE2E, SupervisorPassesThroughACleanExit)
{
    ProcessGuard supervisor;
    supervisor.pid = spawn({
        MERCURY_SUPERVISORD_BIN,
        "--probe-seconds", "0",
        "--",
        "/bin/true",
    });
    ASSERT_GT(supervisor.pid, 0);
    auto status = waitForExit(supervisor.pid, 15.0);
    ASSERT_TRUE(status.has_value());
    supervisor.disarm();
    ASSERT_TRUE(WIFEXITED(*status));
    EXPECT_EQ(WEXITSTATUS(*status), 0);
}

} // namespace
} // namespace mercury
