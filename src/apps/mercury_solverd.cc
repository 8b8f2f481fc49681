/**
 * @file
 * mercury_solverd: the solver daemon. Loads the machine/room graphs
 * from a modified-dot config file, then serves sensor reads, fiddle
 * commands and utilization updates over UDP while stepping the
 * emulation once per second (paper Section 2.3).
 *
 *   mercury_solverd --config configs/table1_cluster.dot --port 8367
 */

#include <atomic>
#include <csignal>

#include "core/solver.hh"
#include "graphdot/parser.hh"
#include "proto/solver_daemon.hh"
#include "telemetry/layout.hh"
#include "util/fileio.hh"
#include "util/flags.hh"
#include "util/logging.hh"

namespace {

// Lock-free atomics, so the handler may touch them from any thread.
std::atomic<mercury::proto::SolverDaemon *> runningDaemon{nullptr};
std::atomic<bool> stopRequested{false};

void
handleSignal(int)
{
    stopRequested = true;
    if (mercury::proto::SolverDaemon *daemon = runningDaemon.load())
        daemon->stop();
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace mercury;

    // Handlers first: from here on SIGINT/SIGTERM always take the
    // graceful path (final checkpoint, segment unlinked). A signal
    // that lands before the daemon exists is remembered and honoured
    // the moment it does; stop() before run() makes run() drain,
    // checkpoint and return at once.
    std::signal(SIGINT, handleSignal);
    std::signal(SIGTERM, handleSignal);

    FlagSet flags("mercury_solverd",
                  "Mercury temperature-emulation solver daemon");
    flags.defineString("config", "configs/table1_server.dot",
                       "modified-dot config file (machines + room)");
    flags.defineInt("port", 8367, "UDP port to listen on");
    flags.defineInt("serve-threads", 1,
                    "request-plane serve workers, each on its own "
                    "SO_REUSEPORT socket (1 = classic single receiver)");
    flags.defineDouble("iteration-seconds", 1.0,
                       "emulated/wall seconds per solver iteration");
    flags.defineDouble("stats-log-seconds", 60.0,
                       "seconds between packet-health log lines "
                       "(needs --verbose; 0 disables)");
    flags.defineInt("threads", 1,
                    "machine-stepping executors (1 = serial, 0 = all "
                    "hardware threads)");
    flags.defineDouble("quiescence-epsilon", 0.0,
                       "freeze machines whose max per-node |dT| and "
                       "projected drift stay under this many degC "
                       "(0 = classic all-machines stepping)");
    flags.defineInt("quiescence-hold", 3,
                    "consecutive calm iterations before freezing");
    flags.defineInt("quiescence-refresh", 64,
                    "forced re-step period for frozen machines "
                    "(iterations; 0 disables the refresh)");
    flags.defineString("shm-name", "",
                       "shared-memory telemetry segment name "
                       "(default: /mercury.<port>)");
    flags.defineBool("no-shm", false,
                     "disable the shared-memory telemetry plane");
    flags.defineString("checkpoint-path", "",
                       "crash-consistent checkpoint file (restored at "
                       "boot; empty disables checkpointing)");
    flags.defineDouble("checkpoint-seconds", 30.0,
                       "seconds between periodic checkpoint saves "
                       "(0 disables the timer)");
    flags.defineString("port-file", "",
                       "write the bound UDP port to this file "
                       "(supervisors and tests using --port 0)");
    flags.defineString("metrics-path", "",
                       "write a Prometheus-style metrics text file here "
                       "periodically (atomic rename; empty disables)");
    flags.defineDouble("metrics-seconds", 10.0,
                       "seconds between metrics file writes");
    flags.defineString("wal-path", "",
                       "deterministic mutation WAL file (replayable "
                       "with mercury_trace --replay-wal; empty "
                       "disables)");
    flags.defineInt("replication-port", -1,
                    "replication listener port for hot standbys "
                    "(0 = ephemeral; negative disables)");
    flags.defineString("replica-of", "",
                       "host:port of a primary's replication listener; "
                       "run as its read-only hot standby");
    flags.defineDouble("lease-seconds", 3.0,
                       "standby promotes itself after the primary has "
                       "been silent this long");
    flags.defineDouble("replica-heartbeat-seconds", 0.5,
                       "heartbeat period toward standbys (keep well "
                       "under the lease)");
    flags.defineInt("hash-iterations", 32,
                    "iterations between primary/standby state-hash "
                    "checks (0 disables)");
    flags.defineDouble("standby-grace-seconds", 0.0,
                       "standby that NEVER reached the primary promotes "
                       "after this long (0 = wait for contact forever)");
    flags.defineBool("verbose", false, "enable info logging");
    if (!flags.parse(argc, argv))
        return 0;
    if (flags.getBool("verbose"))
        setLogLevel(LogLevel::Info);

    core::ConfigSpec config =
        graphdot::loadConfigFile(flags.getString("config"));
    if (config.machines.empty())
        fatal("config has no machines");

    core::SolverConfig solver_config;
    solver_config.iterationSeconds = flags.getDouble("iteration-seconds");
    long long threads = flags.getInt("threads");
    if (threads < 0)
        fatal("--threads must be >= 0");
    solver_config.threads = static_cast<unsigned>(threads);
    double q_eps = flags.getDouble("quiescence-epsilon");
    long long q_hold = flags.getInt("quiescence-hold");
    long long q_refresh = flags.getInt("quiescence-refresh");
    if (q_eps < 0.0)
        fatal("--quiescence-epsilon must be >= 0");
    if (q_hold < 1)
        fatal("--quiescence-hold must be >= 1");
    if (q_refresh < 0)
        fatal("--quiescence-refresh must be >= 0");
    solver_config.quiescenceEpsilon = q_eps;
    solver_config.quiescenceHoldIterations = static_cast<unsigned>(q_hold);
    solver_config.quiescenceRefreshIterations =
        static_cast<unsigned>(q_refresh);
    core::Solver solver(solver_config);
    for (const core::MachineSpec &machine : config.machines)
        solver.addMachine(machine);
    if (config.room)
        solver.setRoom(*config.room);

    proto::SolverDaemon::Config daemon_config;
    daemon_config.port = static_cast<uint16_t>(flags.getInt("port"));
    long long serve_threads = flags.getInt("serve-threads");
    if (serve_threads < 1)
        fatal("--serve-threads must be >= 1");
    daemon_config.serveThreads = static_cast<unsigned>(serve_threads);
    daemon_config.iterationSeconds = flags.getDouble("iteration-seconds");
    daemon_config.statsLogSeconds = flags.getDouble("stats-log-seconds");
    if (!flags.getBool("no-shm")) {
        std::string shm_name = flags.getString("shm-name");
        daemon_config.shmName =
            shm_name.empty()
                ? telemetry::defaultShmName(daemon_config.port)
                : telemetry::normalizeShmName(shm_name);
    }
    daemon_config.checkpointPath = flags.getString("checkpoint-path");
    daemon_config.checkpointSeconds =
        flags.getDouble("checkpoint-seconds");
    daemon_config.metricsPath = flags.getString("metrics-path");
    daemon_config.metricsSeconds = flags.getDouble("metrics-seconds");
    daemon_config.walPath = flags.getString("wal-path");
    long long replication_port = flags.getInt("replication-port");
    if (replication_port > 65535)
        fatal("--replication-port must be <= 65535");
    daemon_config.replicationPort =
        replication_port < 0 ? -1 : static_cast<int>(replication_port);
    daemon_config.replicaOf = flags.getString("replica-of");
    daemon_config.leaseSeconds = flags.getDouble("lease-seconds");
    if (daemon_config.leaseSeconds <= 0.0)
        fatal("--lease-seconds must be > 0");
    daemon_config.replicaHeartbeatSeconds =
        flags.getDouble("replica-heartbeat-seconds");
    if (daemon_config.replicaHeartbeatSeconds <= 0.0)
        fatal("--replica-heartbeat-seconds must be > 0");
    long long hash_iterations = flags.getInt("hash-iterations");
    if (hash_iterations < 0)
        fatal("--hash-iterations must be >= 0");
    daemon_config.hashIterations =
        static_cast<unsigned>(hash_iterations);
    daemon_config.standbyGraceSeconds =
        flags.getDouble("standby-grace-seconds");
    daemon_config.portFile = flags.getString("port-file");
    proto::SolverDaemon daemon(solver, daemon_config);
    runningDaemon = &daemon;
    if (stopRequested)
        daemon.stop();

    // A primary advertises itself right away; a standby leaves the
    // file naming the primary and only rewrites it at promotion (the
    // daemon does that atomically) — flipping it at boot would point
    // clients at a read-only shadow.
    std::string port_file = flags.getString("port-file");
    if (!port_file.empty() && daemon_config.replicaOf.empty()) {
        std::string error;
        if (!atomicWriteFile(port_file,
                             std::to_string(daemon.port()) + "\n",
                             &error))
            fatal("cannot write --port-file ", port_file, ": ", error);
    }

    inform("mercury_solverd: ", config.machines.size(),
           " machine(s), listening on UDP port ", daemon.port());
    daemon.run();
    runningDaemon = nullptr;
    inform("mercury_solverd: ", daemon.service().updatesApplied(),
           " updates, ", daemon.service().sensorReads(), " sensor reads, ",
           daemon.service().fiddlesApplied(), " fiddles");
    inform("mercury_solverd: packet health: ",
           daemon.service().statsLine());
    return 0;
}
