/**
 * @file
 * monitord: per-machine monitoring daemon. Samples CPU/disk/network
 * utilization (from /proc by default, or replayed from a trace) once
 * per second and ships 128-byte UDP updates to the solver (paper
 * Section 2.3).
 *
 *   monitord --machine m1 --solver-host solvermachine --solver-port 8367
 */

#include <unistd.h>

#include <chrono>
#include <csignal>
#include <fstream>
#include <thread>

#include "core/trace.hh"
#include "guard/sensor_guard.hh"
#include "metrics/metrics.hh"
#include "monitor/monitord.hh"
#include "sensor/client.hh"
#include "util/flags.hh"
#include "util/logging.hh"

namespace {

volatile std::sig_atomic_t stopRequested = 0;

void
handleSignal(int)
{
    stopRequested = 1;
}

std::string
localHostname()
{
    char buf[256] = {};
    if (::gethostname(buf, sizeof(buf) - 1) != 0)
        return "localhost";
    return buf;
}

/**
 * Sleep for @p seconds in short slices so a SIGINT/SIGTERM turns
 * around in ~100 ms instead of waiting out a full period.
 */
void
interruptibleSleep(double seconds)
{
    using Clock = std::chrono::steady_clock;
    auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    while (!stopRequested && Clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace mercury;

    FlagSet flags("monitord", "Mercury component-utilization monitor");
    flags.defineString("machine", "", "machine name (default: hostname)");
    flags.defineString("solver-host", "127.0.0.1", "solver host");
    flags.defineInt("solver-port", 8367, "solver UDP port");
    flags.defineDouble("period", 1.0, "seconds between updates");
    flags.defineString("source", "proc",
                       "utilization source: proc | trace");
    flags.defineString("trace", "", "trace file for --source trace");
    flags.defineDouble("duration", 0.0,
                       "exit after this many seconds (0 = forever)");
    flags.defineString("record", "",
                       "also append every sample to this utilization "
                       "trace CSV (for later offline replay)");
    flags.defineInt("backlog", 600,
                    "samples queued while the solver is unreachable "
                    "(0 disables the outage backlog)");
    flags.defineString("gap-fill", "replay",
                       "what to ship from the backlog on reconnect: "
                       "replay | hold-last");
    flags.defineDouble("probe-seconds", 5.0,
                       "seconds between solver reachability probes "
                       "(only with --backlog > 0)");
    flags.defineString("metrics-path", "",
                       "write a Prometheus-style metrics text file here "
                       "periodically (atomic rename; empty disables)");
    flags.defineDouble("metrics-seconds", 10.0,
                       "seconds between metrics file writes");
    flags.defineBool("sensor-guard", false,
                     "validate sampled utilizations through the sensor "
                     "trust layer; implausible samples ship their "
                     "substitute with the update's trust tag set");
    flags.defineBool("verbose", false, "enable info logging");
    if (!flags.parse(argc, argv))
        return 0;
    if (flags.getBool("verbose"))
        setLogLevel(LogLevel::Info);

    std::string machine = flags.getString("machine");
    if (machine.empty())
        machine = localHostname();

    auto address = net::resolveHost(flags.getString("solver-host"));
    if (!address)
        fatal("cannot resolve solver host '",
              flags.getString("solver-host"), "'");
    net::Endpoint solver{*address,
                         static_cast<uint16_t>(flags.getInt("solver-port"))};

    std::unique_ptr<monitor::UtilizationSource> source;
    core::UtilizationTrace trace; // must outlive the source
    std::string kind = flags.getString("source");
    if (kind == "proc") {
        auto proc = std::make_unique<monitor::ProcSource>();
        if (!proc->available())
            fatal("/proc is not readable; use --source trace");
        source = std::move(proc);
    } else if (kind == "trace") {
        if (flags.getString("trace").empty())
            fatal("--source trace needs --trace <file>");
        trace = core::UtilizationTrace::loadFile(flags.getString("trace"));
        source = std::make_unique<monitor::TraceSource>(trace, machine);
    } else {
        fatal("unknown source '", kind, "'");
    }

    auto socket = std::make_shared<net::UdpSocket>();
    // Batch each tick's updates (and outage replays) into sendmmsg
    // calls.
    auto batcher =
        std::make_shared<monitor::UpdateBatcher>(socket, solver);
    monitor::Monitord::Sink sink = batcher->sink();

    // --record: tee every sample into a trace file so a live machine's
    // behaviour can be replayed offline later (mercury_trace).
    core::UtilizationTrace recorded;
    std::ofstream record_file;
    auto record_clock = std::make_shared<double>(0.0);
    bool recording = !flags.getString("record").empty();
    if (recording) {
        record_file.open(flags.getString("record"));
        if (!record_file)
            fatal("cannot open --record file '",
                  flags.getString("record"), "'");
        monitor::Monitord::Sink udp = std::move(sink);
        sink = [udp, &recorded, record_clock](
                   const proto::UtilizationUpdate &update) {
            udp(update);
            recorded.add(*record_clock, update.machine, update.component,
                         update.utilization);
        };
    }

    monitor::Monitord daemon(machine, std::move(source), std::move(sink));

    // Utilization counters step freely and have no thermal model to
    // cross-check against, so the guard runs the loosened utilization
    // profile: range + stuck-at only.
    std::unique_ptr<guard::SensorGuard> sensor_guard;
    if (flags.getBool("sensor-guard")) {
        sensor_guard = std::make_unique<guard::SensorGuard>(
            guard::GuardConfig::utilizationProfile());
        daemon.setGuard(sensor_guard.get());
    }

    // Outage backlog: queue samples while the solver is unreachable
    // and replay them on reconnect. Reachability is decided by a
    // cheap fiddle("stats") round trip on its own cadence.
    long long backlog_capacity = flags.getInt("backlog");
    if (backlog_capacity < 0)
        fatal("--backlog must be >= 0");
    std::unique_ptr<sensor::SensorClient> probe;
    double probe_seconds = flags.getDouble("probe-seconds");
    if (backlog_capacity > 0) {
        monitor::Monitord::BacklogConfig backlog_config;
        backlog_config.capacity = static_cast<size_t>(backlog_capacity);
        std::string gap_fill = flags.getString("gap-fill");
        if (gap_fill == "replay") {
            backlog_config.policy =
                monitor::Monitord::GapFillPolicy::Replay;
        } else if (gap_fill == "hold-last") {
            backlog_config.policy =
                monitor::Monitord::GapFillPolicy::HoldLast;
        } else {
            fatal("unknown --gap-fill '", gap_fill,
                  "' (replay | hold-last)");
        }
        daemon.enableBacklog(backlog_config);
        if (probe_seconds <= 0.0)
            fatal("--probe-seconds must be > 0");
        probe = std::make_unique<sensor::SensorClient>(
            std::make_unique<sensor::UdpTransport>(
                flags.getString("solver-host"),
                static_cast<uint16_t>(flags.getInt("solver-port"))),
            machine);
    }

    std::signal(SIGINT, handleSignal);
    std::signal(SIGTERM, handleSignal);

    // Export daemon health; written periodically when --metrics-path
    // is set (the solver daemon exposes its registry over RPC, but
    // monitord has no server socket, so the file is its only surface).
    metrics::Registry &registry = metrics::Registry::global();
    metrics::CallbackGuard sent_guard, depth_guard, replayed_guard,
        dropped_guard, online_guard, send_err_guard;
    send_err_guard.add(registry, "monitor_update_send_errors_total",
                       "update datagrams that failed to send",
                       [batcher] {
                           return static_cast<double>(
                               batcher->sendErrors());
                       });
    sent_guard.add(registry, "monitor_updates_sent_total",
                   "utilization updates shipped to the solver",
                   [&daemon] {
                       return static_cast<double>(daemon.updatesSent());
                   });
    depth_guard.add(registry, "monitor_backlog_depth",
                    "samples currently queued for an unreachable solver",
                    [&daemon] {
                        return static_cast<double>(daemon.backlogDepth());
                    });
    replayed_guard.add(
        registry, "monitor_backlog_replayed_total",
        "queued samples replayed after a reconnect", [&daemon] {
            return static_cast<double>(daemon.backlogReplayed());
        });
    dropped_guard.add(
        registry, "monitor_backlog_dropped_total",
        "queued samples dropped at backlog capacity", [&daemon] {
            return static_cast<double>(daemon.backlogDropped());
        });
    online_guard.add(registry, "monitor_solver_reachable",
                     "1 while the solver answers probes", [&daemon] {
                         return daemon.online() ? 1.0 : 0.0;
                     });
    metrics::CallbackGuard subst_guard;
    if (sensor_guard) {
        subst_guard.add(
            registry, "monitor_updates_substituted_total",
            "updates shipped with a guard-substituted value", [&daemon] {
                return static_cast<double>(daemon.updatesSubstituted());
            });
    }
    std::string metrics_path = flags.getString("metrics-path");
    double metrics_seconds = flags.getDouble("metrics-seconds");
    double next_metrics = 0.0;

    inform("monitord: machine '", machine, "' -> ", solver.toString());
    double period = flags.getDouble("period");
    double duration = flags.getDouble("duration");
    auto start = std::chrono::steady_clock::now();
    double next_probe = 0.0;
    while (!stopRequested) {
        auto now = std::chrono::steady_clock::now();
        double elapsed = std::chrono::duration<double>(now - start).count();
        if (duration > 0.0 && elapsed >= duration)
            break;
        if (!metrics_path.empty() && metrics_seconds > 0.0 &&
            elapsed >= next_metrics) {
            metrics::writeTextFile(registry, metrics_path);
            next_metrics = elapsed + metrics_seconds;
        }
        if (probe && elapsed >= next_probe) {
            bool reachable = probe->fiddle("stats").first;
            if (reachable != daemon.online()) {
                if (reachable)
                    inform("monitord: solver reachable again, "
                           "replaying ", daemon.backlogDepth(),
                           " queued sample(s)");
                else
                    inform("monitord: solver unreachable, queueing "
                           "up to ", backlog_capacity, " sample(s)");
            }
            daemon.setOnline(reachable); // may replay the backlog
            batcher->flush();
            next_probe = elapsed + probe_seconds;
        }
        *record_clock = elapsed;
        daemon.tick(elapsed);
        batcher->flush();
        interruptibleSleep(period);
    }
    if (stopRequested)
        inform("monitord: signal received, flushing and exiting");
    if (recording) {
        recorded.save(record_file);
        inform("monitord: trace written to ", flags.getString("record"));
    }
    if (!metrics_path.empty())
        metrics::writeTextFile(registry, metrics_path);
    inform("monitord: sent ", daemon.updatesSent(), " updates (",
           daemon.backlogReplayed(), " replayed from backlog, ",
           daemon.backlogDropped(), " dropped, ", daemon.backlogDepth(),
           " still queued)");
    if (sensor_guard)
        inform("monitord: guard substituted ",
               daemon.updatesSubstituted(), " sample(s), ",
               sensor_guard->anomaliesTotal(), " anomalies");
    return 0;
}
