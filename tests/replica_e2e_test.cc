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

#include <dirent.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/solver.hh"
#include "monitor/monitord.hh"
#include "net/udp.hh"
#include "proto/solver_service.hh"
#include "proto/wal_codec.hh"
#include "replica/wal.hh"
#include "sensor/client.hh"
#include "state/checkpoint.hh"

#ifndef MERCURY_CONFIG_DIR
#define MERCURY_CONFIG_DIR "configs"
#endif
#ifndef MERCURY_SOLVERD_BIN
#define MERCURY_SOLVERD_BIN "mercury_solverd"
#endif
#ifndef MERCURY_SUPERVISORD_BIN
#define MERCURY_SUPERVISORD_BIN "mercury_supervisord"
#endif

namespace mercury {
namespace {

std::string
tempPath(const std::string &tag)
{
    return "/tmp/mercury_replica_e2e." + tag + "." +
           std::to_string(::getpid());
}

pid_t
spawn(const std::vector<std::string> &command)
{
    pid_t pid = ::fork();
    if (pid == 0) {
        std::vector<char *> argv;
        for (const std::string &arg : command)
            argv.push_back(const_cast<char *>(arg.c_str()));
        argv.push_back(nullptr);
        ::execv(argv[0], argv.data());
        ::_exit(127);
    }
    return pid;
}

/** Kills and reaps the process on scope exit unless already reaped. */
struct ProcessGuard
{
    pid_t pid = -1;
    ~ProcessGuard()
    {
        if (pid > 0) {
            ::kill(pid, SIGKILL);
            ::waitpid(pid, nullptr, 0);
        }
    }
    void disarm() { pid = -1; }
};

/** Wait for @p pid to exit; returns its status, or nullopt on timeout. */
std::optional<int>
waitForExit(pid_t pid, double timeout_seconds)
{
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::duration<double>(timeout_seconds);
    while (std::chrono::steady_clock::now() < deadline) {
        int status = 0;
        pid_t got = ::waitpid(pid, &status, WNOHANG);
        if (got == pid)
            return status;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return std::nullopt;
}

/**
 * Live child of @p parent whose /proc cmdline has @p arg_value right
 * after @p arg_name. Disambiguates the two solverds an HA supervisor
 * runs (findChildOf alone would be a coin flip).
 */
pid_t
findChildWithArg(pid_t parent, const std::string &arg_name,
                 const std::string &arg_value)
{
    DIR *proc = ::opendir("/proc");
    if (!proc)
        return -1;
    pid_t found = -1;
    while (dirent *entry = ::readdir(proc)) {
        std::string name = entry->d_name;
        if (name.empty() ||
            name.find_first_not_of("0123456789") != std::string::npos) {
            continue;
        }
        std::ifstream stat("/proc/" + name + "/stat");
        std::string line;
        if (!std::getline(stat, line))
            continue;
        size_t close = line.rfind(')');
        if (close == std::string::npos)
            continue;
        std::istringstream rest(line.substr(close + 1));
        std::string state;
        long ppid = 0;
        rest >> state >> ppid;
        if (ppid != parent)
            continue;

        std::ifstream cmdline_file("/proc/" + name + "/cmdline");
        std::string cmdline((std::istreambuf_iterator<char>(cmdline_file)),
                            std::istreambuf_iterator<char>());
        std::vector<std::string> argv;
        size_t start = 0;
        while (start < cmdline.size()) {
            size_t end = cmdline.find('\0', start);
            if (end == std::string::npos)
                end = cmdline.size();
            argv.push_back(cmdline.substr(start, end - start));
            start = end + 1;
        }
        for (size_t i = 0; i + 1 < argv.size(); ++i) {
            if (argv[i] == arg_name && argv[i + 1] == arg_value) {
                found = static_cast<pid_t>(std::stol(name));
                break;
            }
        }
        if (found > 0)
            break;
    }
    ::closedir(proc);
    return found;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    while (!content.empty() &&
           (content.back() == '\n' || content.back() == '\r')) {
        content.pop_back();
    }
    return content;
}

/** Poll `fiddle replica` on @p probe until the line contains @p want. */
bool
waitForReplicaLine(sensor::SensorClient &probe, const std::string &want,
                   double timeout_seconds, std::string *last = nullptr)
{
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::duration<double>(timeout_seconds);
    while (std::chrono::steady_clock::now() < deadline) {
        auto [ok, line] = probe.fiddle("replica");
        if (last)
            *last = line;
        if (ok && line.find(want) != std::string::npos)
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    return false;
}

std::string
configPath()
{
    return std::string(MERCURY_CONFIG_DIR) + "/table1_server.dot";
}

TEST(ReplicaE2E, Kill9PromotesStandbyWithinLeaseAndBitwiseMatchesWal)
{
    const uint16_t primary_port =
        static_cast<uint16_t>(52000 + (::getpid() % 5000));
    const uint16_t standby_port = primary_port + 1;
    const uint16_t replication_port = primary_port + 2;
    const std::string wal_path = tempPath("failover.wal");
    const std::string checkpoint_path = tempPath("failover.ck");
    const double lease_seconds = 1.0;
    std::remove(wal_path.c_str());
    std::remove((wal_path + ".old").c_str());
    std::remove(checkpoint_path.c_str());

    ProcessGuard primary;
    primary.pid = spawn({
        MERCURY_SOLVERD_BIN,
        "--config", configPath(),
        "--port", std::to_string(primary_port),
        "--iteration-seconds", "0.02",
        "--replication-port", std::to_string(replication_port),
        "--replica-heartbeat-seconds", "0.1",
        "--lease-seconds", std::to_string(lease_seconds),
        "--hash-iterations", "25",
        "--no-shm",
    });
    ASSERT_GT(primary.pid, 0);

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
    auto socket = std::make_shared<net::UdpSocket>();
    net::Endpoint primary_endpoint{*net::resolveHost("127.0.0.1"),
                                   primary_port};
    monitor::Monitord monitord(
        "server", std::move(source),
        monitor::Monitord::udpSink(socket, primary_endpoint));

    double tick_clock = 0.0;
    auto tick = [&](int rounds) {
        for (int i = 0; i < rounds; ++i) {
            monitord.setOnline(true);
            monitord.tick(tick_clock);
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

    std::remove(wal_path.c_str());
    std::remove((wal_path + ".old").c_str());
    std::remove(checkpoint_path.c_str());
}

TEST(ReplicaE2E, SupervisordHaPairFlipsThePortFileOnFailover)
{
    const uint16_t primary_port =
        static_cast<uint16_t>(57100 + (::getpid() % 5000));
    const uint16_t standby_port = primary_port + 1;
    const uint16_t replication_port = primary_port + 2;
    const std::string port_file = tempPath("portfile");
    std::remove(port_file.c_str());

    ProcessGuard supervisor;
    supervisor.pid = spawn({
        MERCURY_SUPERVISORD_BIN,
        "--solver-port", std::to_string(primary_port),
        "--standby-solver-port", std::to_string(standby_port),
        "--port-file", port_file,
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
    pid_t primary_pid = findChildWithArg(supervisor.pid, "--port",
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

    std::remove(port_file.c_str());
}

} // namespace
} // namespace mercury
