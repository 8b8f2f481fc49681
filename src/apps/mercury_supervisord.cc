/**
 * @file
 * mercury_supervisord: keeps a mercury_solverd alive. Spawns the
 * command after `--`, reaps it when it dies and restarts it with
 * exponential backoff, gives up on a crash loop, and probes `fiddle
 * stats` over UDP so a daemon that is alive-but-stuck (iteration
 * counter frozen) is killed and restarted like a dead one. Point the
 * child at a --checkpoint-path and every restart resumes from the
 * last consistent snapshot.
 *
 *   mercury_supervisord --solver-port 8367 -- \
 *       ./mercury_solverd --config configs/table1_cluster.dot \
 *       --port 8367 --checkpoint-path /var/lib/mercury/solver.ck
 *
 * HA pair mode: give it a primary command after `--` and a standby
 * command after `---` (plus --standby-solver-port and usually
 * --port-file). One loop serves both modes. It watches one child (the
 * primary, or the only child) with the rules above; in HA mode a
 * standby also waits beside it, reaped and respawned after the backoff
 * but never probed. Failover is the only extra step: when the watched
 * primary dies or stalls while the standby waits, the port file flips
 * to the standby — which promotes itself via the replication lease —
 * and the standby becomes the watched child. The old primary is NEVER
 * restarted (restarting it as a primary again would split the brain;
 * see docs/operations.md). If the promoted child later dies it is
 * restarted with the standby command, whose --standby-grace-seconds
 * lets it promote again with no primary around.
 */

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "metrics/metrics.hh"
#include "sensor/client.hh"
#include "state/supervisor.hh"
#include "util/fileio.hh"
#include "util/flags.hh"
#include "util/logging.hh"
#include "util/strings.hh"

namespace {

using namespace mercury;

volatile std::sig_atomic_t stopRequested = 0;

void
handleSignal(int)
{
    stopRequested = 1;
}

double
nowSeconds()
{
    static const auto start = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

/** One supervised solverd and its current process (pid -1 while down). */
struct Child
{
    const char *role;
    std::vector<std::string> command;
    uint16_t port;
    pid_t pid = -1;
    double spawnedAt = 0.0;
    double respawnAt = 0.0; //!< when a down child is started again
};

void
spawn(Child &child)
{
    pid_t pid = ::fork();
    if (pid < 0)
        fatal("fork(): ", std::strerror(errno));
    if (pid == 0) {
        std::vector<char *> argv;
        argv.reserve(child.command.size() + 1);
        for (const std::string &arg : child.command)
            argv.push_back(const_cast<char *>(arg.c_str()));
        argv.push_back(nullptr);
        ::execvp(argv[0], argv.data());
        // Only reached when exec fails; the shell's "command not
        // found" status tells the supervisor this is hopeless.
        ::_exit(127);
    }
    child.pid = pid;
    child.spawnedAt = nowSeconds();
    inform("mercury_supervisord: spawned ", child.role, " '",
           child.command[0], "' as pid ", pid);
}

/** True once a running @p child has exited (status in @p status). */
bool
reaped(const Child &child, int *status)
{
    if (child.pid < 0)
        return false;
    pid_t got = ::waitpid(child.pid, status, WNOHANG);
    if (got < 0)
        fatal("waitpid(", child.pid, "): ", std::strerror(errno));
    return got == child.pid;
}

/** Send @p signal to @p child and return its exit status. */
int
stop(const Child &child, int signal)
{
    ::kill(child.pid, signal);
    int status = 0;
    while (::waitpid(child.pid, &status, 0) < 0 && errno == EINTR) {
    }
    return status;
}

/** Pull the iteration counter out of a stats line ("it=<n> ..."). */
std::optional<uint64_t>
parseIterations(const std::string &stats)
{
    for (const std::string &field : splitWhitespace(stats)) {
        if (!startsWith(field, "it="))
            continue;
        auto value = parseInt(field.substr(3));
        if (value && *value >= 0)
            return static_cast<uint64_t>(*value);
        return std::nullopt;
    }
    return std::nullopt;
}

std::string
describeExit(int status)
{
    if (WIFEXITED(status))
        return "exit status " + std::to_string(WEXITSTATUS(status));
    if (WIFSIGNALED(status))
        return "signal " + std::to_string(WTERMSIG(status));
    return "unknown status";
}

} // namespace

int
main(int argc, char **argv)
{
    // FlagSet treats unknown flags as fatal, so split the child's
    // command line off at `--` before parsing our own. A second
    // separator `---` splits off a standby command (HA pair mode).
    std::vector<std::string> child_command;
    std::vector<std::string> standby_command;
    int own_argc = argc;
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--") {
            own_argc = i;
            std::vector<std::string> *sink = &child_command;
            for (int j = i + 1; j < argc; ++j) {
                if (std::string(argv[j]) == "---") {
                    sink = &standby_command;
                    continue;
                }
                sink->push_back(argv[j]);
            }
            break;
        }
    }

    FlagSet flags("mercury_supervisord",
                  "supervise a mercury_solverd: restart on crash or "
                  "stall (usage: mercury_supervisord [flags] -- "
                  "<solverd command>)");
    flags.defineString("solver-host", "127.0.0.1",
                       "host the supervised solver answers on");
    flags.defineInt("solver-port", 8367,
                    "UDP port the supervised solver answers on");
    flags.defineInt("standby-solver-port", 0,
                    "UDP service port of the standby in HA pair mode "
                    "(command after ---)");
    flags.defineString("port-file", "",
                       "file naming the watched daemon's port; written "
                       "at start and rewritten atomically on failover");
    flags.defineDouble("probe-seconds", 2.0,
                       "seconds between fiddle-stats liveness probes "
                       "(0 disables stall detection)");
    flags.defineDouble("stall-seconds", 20.0,
                       "kill the child when its iteration counter has "
                       "not advanced for this long");
    flags.defineDouble("initial-backoff", 0.5,
                       "seconds before the first restart");
    flags.defineDouble("max-backoff", 30.0, "restart backoff ceiling");
    flags.defineDouble("healthy-uptime", 30.0,
                       "uptime that resets the backoff ladder");
    flags.defineInt("crash-loop-threshold", 5,
                    "give up after this many exits inside the window");
    flags.defineDouble("crash-loop-window", 60.0,
                       "crash-loop detection window [s]");
    flags.defineInt("max-restarts", 0,
                    "give up when the watched child exits and this "
                    "many exits, a waiting standby's included, have "
                    "been seen (0 = unlimited)");
    flags.defineString("metrics-path", "",
                       "write a Prometheus-style metrics text file here "
                       "on every child event and at shutdown (empty "
                       "disables)");
    flags.defineBool("verbose", false, "enable info logging");
    if (!flags.parse(own_argc, argv))
        return 0;
    if (flags.getBool("verbose"))
        setLogLevel(LogLevel::Info);

    if (child_command.empty())
        fatal("nothing to supervise: put the solverd command after --");

    std::signal(SIGINT, handleSignal);
    std::signal(SIGTERM, handleSignal);

    std::vector<Child> children;
    children.push_back(
        {standby_command.empty() ? "child" : "primary", child_command,
         static_cast<uint16_t>(flags.getInt("solver-port"))});
    if (!standby_command.empty()) {
        long long port = flags.getInt("standby-solver-port");
        if (port <= 0 || port > 65535)
            fatal("HA pair mode needs --standby-solver-port (the "
                  "standby's UDP service port)");
        children.push_back(
            {"standby", standby_command, static_cast<uint16_t>(port)});
    }
    Child *watched = &children[0];
    Child *waiting = children.size() > 1 ? &children[1] : nullptr;

    state::SupervisorPolicy policy;
    policy.initialBackoffSeconds = flags.getDouble("initial-backoff");
    policy.maxBackoffSeconds = flags.getDouble("max-backoff");
    policy.healthyUptimeSeconds = flags.getDouble("healthy-uptime");
    policy.crashLoopThreshold =
        static_cast<int>(flags.getInt("crash-loop-threshold"));
    policy.crashLoopWindowSeconds = flags.getDouble("crash-loop-window");
    state::RestartTracker tracker(policy);
    long long max_restarts = flags.getInt("max-restarts");

    metrics::Registry &registry = metrics::Registry::global();
    tracker.setRestartCounter(registry.counter(
        "supervisor_restarts_total", "child exits seen (each leads to "
                                     "a restart unless we give up)"));
    metrics::Counter *stall_kills = registry.counter(
        "supervisor_stall_kills_total",
        "children killed because their iteration counter froze");
    metrics::Counter *failovers = registry.counter(
        "supervisor_failovers_total",
        "primary deaths that flipped traffic to the standby");
    metrics::CallbackGuard backoff_guard;
    backoff_guard.add(registry, "supervisor_backoff_seconds",
                      "the delay the next restart would wait",
                      [&tracker] {
                          return tracker.currentBackoffSeconds();
                      });
    std::string metrics_path = flags.getString("metrics-path");
    auto write_metrics = [&] {
        if (!metrics_path.empty())
            metrics::writeTextFile(registry, metrics_path);
    };
    std::string port_file = flags.getString("port-file");
    auto write_port_file = [&] {
        if (port_file.empty())
            return;
        std::string error;
        if (!atomicWriteFile(port_file,
                             std::to_string(watched->port) + "\n", &error))
            warn("mercury_supervisord: port file ", port_file,
                 " not updated: ", error);
        else
            inform("mercury_supervisord: port file ", port_file,
                   " -> port ", watched->port);
    };

    // Liveness of the watched child, started afresh whenever it is
    // (re)spawned or a failover hands the watch to the standby.
    double probe_seconds = flags.getDouble("probe-seconds");
    double stall_seconds = flags.getDouble("stall-seconds");
    std::string host = flags.getString("solver-host");
    std::unique_ptr<sensor::SensorClient> probe;
    state::StallDetector stall(stall_seconds);
    double last_responsive = 0.0;
    double next_probe = 0.0;
    auto watch = [&](double now) {
        if (probe_seconds > 0.0)
            probe = std::make_unique<sensor::SensorClient>(
                std::make_unique<sensor::UdpTransport>(host,
                                                       watched->port),
                "supervisor");
        stall.reset();
        last_responsive = now;
        next_probe = now + probe_seconds;
    };

    write_port_file();
    for (; !stopRequested;
         std::this_thread::sleep_for(std::chrono::milliseconds(100))) {
        double now = nowSeconds();
        // Start each child whose restart deadline has passed: both on
        // the first tick, later whichever died.
        for (Child *child : {watched, waiting}) {
            if (child && child->pid < 0 && now >= child->respawnAt) {
                spawn(*child);
                if (child == watched)
                    watch(now);
                write_metrics();
            }
        }

        // The waiting standby: losing it costs redundancy, not
        // service, so it is respawned freely and never gives up.
        int status = 0;
        if (waiting && reaped(*waiting, &status)) {
            double delay =
                tracker.onExit(now, now - waiting->spawnedAt);
            warn("mercury_supervisord: standby pid ", waiting->pid,
                 " died (", describeExit(status), "); restarting in ",
                 delay, " s");
            waiting->pid = -1;
            waiting->respawnAt = now + delay;
            write_metrics();
        }

        if (watched->pid < 0)
            continue;
        bool dead = reaped(*watched, &status);
        if (!dead && probe && now >= next_probe) {
            auto [ok, reply] = probe->fiddle("stats");
            if (ok) {
                last_responsive = now;
                if (auto iterations = parseIterations(reply))
                    stall.noteProgress(*iterations, now);
            }
            next_probe = now + probe_seconds;
        }
        bool killed_for_stall =
            !dead && probe && stall_seconds > 0.0 &&
            (stall.stalled(now) || now - last_responsive > stall_seconds);
        if (killed_for_stall) {
            warn("mercury_supervisord: pid ", watched->pid,
                 " is stuck (no progress for ", stall_seconds,
                 " s), killing it");
            status = stop(*watched, SIGKILL);
            stall_kills->inc();
        }
        if (!dead && !killed_for_stall)
            continue;
        pid_t pid = watched->pid;
        watched->pid = -1;

        if (waiting) {
            warn("mercury_supervisord: primary pid ", pid, " is gone (",
                 describeExit(status),
                 "); failing over to the standby on port ",
                 waiting->port);
            failovers->inc();
            // The old primary is never restarted: its lineage is dead
            // the moment the standby's lease expires, and bringing it
            // back as a primary would split the brain.
            watched = waiting;
            waiting = nullptr;
            if (watched->pid < 0)
                spawn(*watched);
            write_port_file();
            watch(now);
            write_metrics();
            continue;
        }

        if (!killed_for_stall && WIFEXITED(status) &&
            WEXITSTATUS(status) == 0) {
            inform("mercury_supervisord: ", watched->role,
                   " exited cleanly, done");
            write_metrics();
            return 0;
        }
        if (WIFEXITED(status) && WEXITSTATUS(status) == 127)
            fatal("mercury_supervisord: cannot exec '",
                  watched->command[0], "'");
        double uptime = now - watched->spawnedAt;
        double delay = tracker.onExit(now, uptime);
        write_metrics();
        if (tracker.crashLooping(now))
            fatal("mercury_supervisord: crash loop (",
                  policy.crashLoopThreshold, " exits within ",
                  policy.crashLoopWindowSeconds, " s), giving up");
        if (max_restarts > 0 &&
            tracker.restarts() >= static_cast<uint64_t>(max_restarts))
            fatal("mercury_supervisord: --max-restarts ", max_restarts,
                  " reached, giving up");
        warn("mercury_supervisord: ", watched->role, " pid ", pid,
             " died (", describeExit(status), ") after ", uptime,
             " s; restarting in ", delay, " s");
        watched->respawnAt = now + delay;
    }

    // Forward the shutdown so each child writes its final checkpoint,
    // then wait for it.
    for (const Child &child : children) {
        if (child.pid > 0)
            stop(child, SIGTERM);
    }
    inform("mercury_supervisord: shutting down after ", tracker.restarts(),
           " restart(s), ", failovers->value(), " failover(s)");
    write_metrics();
    return 0;
}
